package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the slice of BENCHMARK.json these tests check against.
type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
	Workloads []struct {
		Name string
	} `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 1.2, trace: trace, scratch: t.TempDir()}
}

// TestTinyRunPrintsEveryMetric runs every workload briefly, untraced and
// traced, and checks that the last output line names exactly the metrics
// BENCHMARK.json lists, with their units, and that every output matched
// the sequential oracle.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			var out bytes.Buffer
			res, err := run(tinyOptions(t, w.Name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if err := writeResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !last.Correct || last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d\n%s", w.Name, trace, last.Correct, last.Attempted, out.String())
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && (got.Value < 0 || math.IsInf(got.Value, 0)):
					t.Errorf("%s: end-to-end metric %s = %v, want a non-negative finite value", w.Name, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s = 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestOutputCheckCatchesCorruption serves a few requests, then flips one
// bit of one completed request's output: the output check must count
// exactly that request as wrong and as failed.
func TestOutputCheckCatchesCorruption(t *testing.T) {
	for _, name := range []string{"treelstm-small", "seq2seq-durable"} {
		sp, err := loadSpec()
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		b := &bench{opts: tinyOptions(t, name, false), sp: sp, ws: sp.Workloads[name], wl: workloads[name], out: &out}
		ph := b.openPhase("probe", b.ws.LightRPS, 0.3, false)
		if err := b.prepare([]*phase{ph}); err != nil {
			t.Fatal(err)
		}
		res := b.runPhase(ph)
		if wrong, err := b.check([]*phaseResult{res}); err != nil || wrong != 0 {
			t.Fatalf("%s: clean run: wrong=%d err=%v", name, wrong, err)
		}
		var victim *rec
		for _, r := range res.recs {
			if r.ok() {
				victim = r
				break
			}
		}
		if victim == nil {
			t.Fatalf("%s: no completed request", name)
		}
		victim.out[len(victim.out)-1] = math.Float32frombits(math.Float32bits(victim.out[len(victim.out)-1]) ^ 1)
		wrong, err := b.check([]*phaseResult{res})
		if err != nil {
			t.Fatal(err)
		}
		if wrong != 1 || victim.ok() || res.failures() != 1 {
			t.Errorf("%s: corrupted output: wrong=%d victim ok=%v failures=%d, want 1/false/1", name, wrong, victim.ok(), res.failures())
		}
		b.close()
	}
}

// TestCrossingInterpolates checks max_rate_rps's interpolation between the
// last passing and the first failing rung.
func TestCrossingInterpolates(t *testing.T) {
	lo := rung{rate: 100, p90: 50}
	for _, c := range []struct {
		hiP90, want float64
	}{
		{500, 100 * math.Pow(1.1, math.Log(2)/math.Log(10))}, // limit 100 is 0.3 of the way in log p90
		{100, 100},         // p90 at the limit is not a crossing above lo
		{math.Inf(1), 100}, // failed requests: no finite p90 to interpolate
	} {
		got := crossing(lo, rung{rate: 110, p90: c.hiP90}, 100)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("hi p90 %v: crossing = %v, want %v", c.hiP90, got, c.want)
		}
	}
}

// TestKneeFitsProbes checks that knee solves the least-squares line of log
// p90 against log rate for the limit, and refuses a line that does not rise.
func TestKneeFitsProbes(t *testing.T) {
	// p90 = rate² / 100 exactly: the limit 400 is reached at rate 200.
	var probes []rung
	for _, rate := range []float64{120, 150, 180, 240} {
		probes = append(probes, rung{rate: rate, p90: rate * rate / 100})
	}
	if got, ok := knee(probes, 400); !ok || math.Abs(got-200) > 1e-9 {
		t.Errorf("knee = %v, %v; want 200, true", got, ok)
	}
	flat := []rung{{rate: 100, p90: 50}, {rate: 110, p90: 50}}
	if _, ok := knee(flat, 400); ok {
		t.Errorf("knee of a flat line: ok = true, want false")
	}
}

// TestMaxRateFitsAroundFirstFailure checks that maxRate fits the rungs
// around the first failing one, reads 0 when light fails and the top
// rung's rate when none fails.
func TestMaxRateFitsAroundFirstFailure(t *testing.T) {
	// light, heavy, then ladder rungs; p90 = rate²/100 reaches 400 at 200.
	ladder := func(rates ...float64) []rung {
		var rs []rung
		for _, r := range rates {
			p90 := r * r / 100
			rs = append(rs, rung{rate: r, p90: p90, pass: p90 <= 400})
		}
		return rs
	}
	rs := ladder(50, 90, 100, 120, 150, 180, 220, 260, 300)
	// A rung four below the first failing one is left out of the fit.
	rs[2].p90 = 1
	if got := maxRate(rs, 400); math.Abs(got-200) > 1e-9 {
		t.Errorf("maxRate = %v, want 200", got)
	}
	rs = ladder(50, 90, 120, 150)
	if got := maxRate(rs, 400); got != 150 {
		t.Errorf("no failing rung: maxRate = %v, want the top rung's 150", got)
	}
	rs[0].pass = false
	if got := maxRate(rs, 400); got != 0 {
		t.Errorf("light fails: maxRate = %v, want 0", got)
	}
}
