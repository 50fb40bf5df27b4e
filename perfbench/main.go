// Command perfbench is the open-loop serving benchmark of the live
// cellular-batching server (internal/server), run in-process.
//
// One run serves one workload (see spec.json): it builds the model and the
// server several times to time set-up, generates every input from --seed,
// then offers Poisson arrivals at the workload's fixed light and heavy
// rates in alternating blocks, and finally keeps a fixed number of requests
// outstanding to find peak throughput. Latency is timed from each request's
// due time, so a stalled generator cannot hide queueing. After the timed
// phases every completed request's outputs are compared bit for bit with
// cellgraph.ExecuteSequential on the same input. The result line carries
// the end-to-end metrics BENCHMARK.json gates: set-up time, CPU time per
// executed cell at the heavy rate and heap allocations per cell.
//
// With --trace 1 the run instead produces the per-layer ledger, latencies
// included: it times the calls the benchmark itself makes into cellgraph,
// core, rnn, tensor, server and journal, and reads the server's and
// journal's public counters. Nothing is traced inside the program. Its
// last live phase searches the rate ladder (10% a rung) for max_rate_rps,
// the rate at which p90 latency reaches the workload's limit: the five
// rungs around the workload's recorded knee in interleaved blocks, further
// rungs only if the crossing has left that window, and a line fitted
// through the rungs around the first one that misses the limit.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload lstm-wmt --seed 1 --seconds 24 --trace 0
//
// Human-readable report lines go to standard output; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opts.seed, "seed", 1, "seed of every generated input and arrival schedule")
	flag.Float64Var(&opts.seconds, "seconds", 24, "measured seconds, split across the run's phases")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&opts.scratch, "scratch", ".bench_build", "directory for journal segments (removed at exit)")
	flag.Parse()
	opts.trace = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fail(err)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func writeResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run executes one benchmark run and returns its result. Report lines are
// written to w as the phases finish.
func run(opts options, w io.Writer) (result, error) {
	sp, err := loadSpec()
	if err != nil {
		return result{}, err
	}
	wl, ok := workloads[opts.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	ws, ok := sp.Workloads[opts.workload]
	if !ok {
		return result{}, fmt.Errorf("spec.json has no constants for workload %q", opts.workload)
	}
	if opts.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	b := &bench{opts: opts, sp: sp, ws: ws, wl: wl, out: w}
	defer b.close()
	if opts.trace {
		return b.runTraced()
	}
	return b.runEndToEnd()
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
