package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// bench is one run's state.
type bench struct {
	opts options
	sp   *spec
	ws   workloadSpec
	wl   workload
	out  io.Writer

	scratch   string
	sys       *system
	setupSecs []float64
	selCost   selectCost
	inputs    []input
	recs      []rec
	nextRec   int
	drawn     int

	// durable feeds the traced run's AdmitDurable waiter (journaled
	// workload only).
	durable    chan durableWait
	durableWG  sync.WaitGroup
	phaseIndex uint64
}

type durableWait struct {
	r *rec
	h *server.Handle
}

func (b *bench) close() {
	if b.durable != nil {
		close(b.durable)
		b.durableWG.Wait()
		b.durable = nil
	}
	if b.sys != nil {
		b.sys.close()
		b.sys = nil
	}
	if b.scratch != "" {
		os.RemoveAll(b.scratch)
	}
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, format, args...)
}

// openPhase draws a Poisson arrival schedule at rate for secs seconds,
// conditioned on its count: round(rate×secs) arrivals, each due at an
// independent uniform time in the phase (the arrival times of a Poisson
// process given its count). Fixing the count keeps every run's offered work
// equal while the arrival pattern stays seeded and bursty.
func (b *bench) openPhase(name string, rate, secs float64, traced bool) *phase {
	b.phaseIndex++
	rng := tensor.NewRNG(b.opts.seed*1_000_003 + b.phaseIndex)
	dur := int64(secs * 1e9)
	offsets := make([]int64, max(1, int(math.Round(rate*secs))))
	for i := range offsets {
		offsets[i] = int64(rng.Float64() * float64(dur))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	return &phase{name: name, rate: rate, offsets: offsets, durNs: dur, traced: traced}
}

func (b *bench) closedPhase(name string, secs float64, traced bool) *phase {
	return &phase{name: name, outstanding: b.sp.PeakOutstanding, durNs: int64(secs * 1e9), traced: traced}
}

// prepare times set-up, then generates the inputs and result buffers for
// every planned phase. Input generation is not part of set-up.
func (b *bench) prepare(phases []*phase) error {
	var err error
	if b.scratch, err = scratchDir(b.opts.scratch); err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	var secs float64
	if b.sys, secs, err = setupTimed(b.wl, b.scratch); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.setupSecs = append(b.setupSecs, secs)
	b.selCost = calibrateSelect()
	planned := 0
	for _, ph := range phases {
		planned += len(ph.offsets) + ph.outstanding
	}
	// Requests draw from a corpus of at most ws.Corpus distinct inputs, in
	// order and wrapping, which bounds the output check's sequential work.
	b.inputs = b.wl.gen(b.opts.seed, min(planned, b.ws.Corpus))
	b.recs = b.makeRecs(0, planned)
	b.printf("# perfbench workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d gomaxprocs=%d inputs=%d\n",
		b.opts.workload, b.opts.seed, b.opts.seconds, b.opts.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), len(b.inputs))
	b.printf("collector calibration: a reflect.Select call over 1..%d or more cases allocates %.3g objects and costs %.0f ns + %.1f ns per case\n",
		selectBig, b.selCost.allocs[1:], b.selCost.nsCall, b.selCost.nsCase)
	return nil
}

// step times the throwaway set-up builds due before a phase, then runs the
// phase and prints its line. Spreading the builds across the run samples
// the shared machine's speed over the whole run rather than over the few
// tens of milliseconds one burst of builds takes; their median is setup_s.
func (b *bench) step(ph *phase) (*phaseResult, error) {
	if err := b.timeSetups(); err != nil {
		return nil, err
	}
	res := b.runPhase(ph)
	b.report(res)
	return res, nil
}

func (b *bench) timeSetups() error {
	for i := 0; i < b.sp.SetupsPerPhase; i++ {
		sys, secs, err := setupTimed(b.wl, b.scratch)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		sys.close()
		b.setupSecs = append(b.setupSecs, secs)
	}
	return nil
}

// rung is one open-loop rate judged against the workload's limit. A rung
// is measured in one or more blocks; its p50 and p90 are taken over the
// pooled latencies of all of them.
type rung struct {
	name     string
	rate     float64
	blocks   []*phaseResult
	p50, p90 float64
	failures int
	growing  bool
	pass     bool
}

func (b *bench) judge(name string, rate float64, blocks []*phaseResult) rung {
	r := rung{name: name, rate: rate, blocks: blocks}
	// A stable queue fluctuates around rate×latency requests; growth by
	// more than that over the second half of a block is a backlog that
	// will not drain.
	slack := max(8, rate*b.ws.LimitMs/1e3)
	var lat []float64
	for _, res := range blocks {
		lat = append(lat, res.latenciesMs()...)
		r.failures += res.failures()
		if float64(res.backlogEnd-res.backlogMid) > slack {
			r.growing = true
		}
	}
	r.p50, r.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
	r.pass = r.p90 <= b.ws.LimitMs && r.failures == 0 && !r.growing
	return r
}

// sumCells totals the phases' executed cells, process allocations and
// CPU time, and the collector's share of the allocations.
func (b *bench) sumCells(rs []*phaseResult) (cells int, allocs uint64, cpuNs int64, collAllocs float64) {
	for _, res := range rs {
		cells += res.cells()
		allocs += res.allocs
		cpuNs += res.cpuNs
		collAllocs += b.selCost.allocsOf(res.coll)
	}
	return cells, allocs, cpuNs, collAllocs
}

// report prints one phase's line: counts, latency, generator lateness and
// backlog, so every latency figure sits beside the lateness behind it.
func (b *bench) report(res *phaseResult) {
	lat := res.latenciesMs()
	late := res.lateMs()
	p := res.ph
	kind := fmt.Sprintf("rate=%.1f/s", p.rate)
	if p.outstanding > 0 {
		kind = fmt.Sprintf("outstanding=%d peak_cells_per_s=%.1f", p.outstanding, res.peakCellsPerS)
	}
	b.printf("phase %-8s %s traced=%v sent=%d failed=%d cells=%d lat_p50_ms=%.3f lat_p90_ms=%.3f lat_p99_ms=%.3f achieved_rps=%.2f late_p99_ms=%.3f late_max_ms=%.3f late_share_%gms=%.4f backlog_mid=%d backlog_end=%d cpu_us_per_cell=%.1f cpu_busy=%.3f\n",
		p.name, kind, p.traced, len(res.recs), res.failures(), res.cells(),
		finite(quantile(lat, 0.5)), finite(quantile(lat, 0.9)), finite(quantile(lat, 0.99)), res.achievedRPS(),
		quantile(late, 0.99), maxOf(late), b.sp.LateThresholdMs, shareAbove(late, b.sp.LateThresholdMs),
		res.backlogMid, res.backlogEnd, ratio(float64(res.cpuNs)/1e3, float64(res.cells())),
		ratio(float64(res.cpuNs), float64(res.endNs-res.startNs)*float64(runtime.GOMAXPROCS(0))))
}

func (b *bench) runEndToEnd() (result, error) {
	ws, sp, s, k := b.ws, b.sp, b.opts.seconds, b.sp.Blocks
	warm := b.openPhase("warmup", ws.LightRPS, sp.WarmupSeconds, false)
	// Light and heavy blocks alternate, so both rates sample the whole run.
	var blocks []*phase
	for i := 0; i < k; i++ {
		blocks = append(blocks,
			b.openPhase(fmt.Sprintf("light%d", i+1), ws.LightRPS, s*sp.Share.Light/float64(k), false),
			b.openPhase(fmt.Sprintf("heavy%d", i+1), ws.HeavyRPS, s*sp.Share.Heavy/float64(k), false))
	}
	peak := b.closedPhase("peak", s*sp.Share.Peak, false)
	if err := b.prepare(append([]*phase{warm, peak}, blocks...)); err != nil {
		return result{}, err
	}

	if _, err := b.step(warm); err != nil {
		return result{}, err
	}
	var measured, lightRes, heavyRes []*phaseResult
	for i, ph := range blocks {
		res, err := b.step(ph)
		if err != nil {
			return result{}, err
		}
		measured = append(measured, res)
		if i%2 == 0 {
			lightRes = append(lightRes, res)
		} else {
			heavyRes = append(heavyRes, res)
		}
	}
	if err := b.timeSetups(); err != nil {
		return result{}, err
	}
	peakRes, heapMB := b.runPeak(peak)
	b.report(peakRes)
	measured = append(measured, peakRes)

	wrong, err := b.check(measured)
	if err != nil {
		return result{}, err
	}
	attempted, failed := 0, 0
	for _, res := range measured {
		attempted += len(res.recs)
		failed += res.failures()
	}
	cells, allocs, _, collAllocs := b.sumCells(measured)
	heavyCells, _, heavyCPU, _ := b.sumCells(heavyRes)
	// Latency, max_rate_rps, peak throughput and heap are reported in the
	// traced run's ledger, not gated: on a shared host they moved between
	// sets of runs by more than the widest bound a gate may have (see
	// spec.json's per_layer_targets).
	m := map[string]metric{
		"setup_s":         {median(b.setupSecs), "s"},
		"cpu_us_per_cell": {float64(heavyCPU) / 1e3 / float64(max(heavyCells, 1)), "us"},
		"allocs_per_cell": {(float64(allocs) - collAllocs) / float64(max(cells, 1)), "count"},
	}
	light, heavy := b.judge("light", ws.LightRPS, lightRes), b.judge("heavy", ws.HeavyRPS, heavyRes)
	b.printf("setup_s each=%v\n", b.setupSecs)
	b.printf("light p50_ms=%.3f p90_ms=%.3f heavy p50_ms=%.3f p90_ms=%.3f failed_share=%.6f attempted=%d failed=%d wrong=%d cells=%d collector_allocs=%.0f peak_cells_per_s=%.1f heap_peak_mb=%.3f\n",
		finite(light.p50), finite(light.p90), finite(heavy.p50), finite(heavy.p90), float64(failed)/float64(max(attempted, 1)), attempted, failed, wrong, cells, collAllocs, peakRes.peakCellsPerS, heapMB)
	return result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// planLadder plans the open-loop probes of the rate ladder, indexed like
// spec.ladder's rates: WindowBlocks blocks for each rung of the window
// and, for every other rung, one probe as long as a window rung's blocks
// together, run only if the window does not hold the crossing.
func (b *bench) planLadder() [][]*phase {
	sp, ws := b.sp, b.ws
	rates := sp.ladder(ws)
	wlo, whi := sp.window(ws)
	blockSecs := b.opts.seconds * sp.Share.Window / float64((whi-wlo+1)*sp.WindowBlocks)
	probes := make([][]*phase, len(rates))
	for i, rate := range rates {
		if i < wlo || i > whi {
			probes[i] = []*phase{b.openPhase(fmt.Sprintf("rung%.0f", rate), rate, blockSecs*float64(sp.WindowBlocks), false)}
			continue
		}
		for j := 0; j < sp.WindowBlocks; j++ {
			probes[i] = append(probes[i], b.openPhase(fmt.Sprintf("rung%.0f.%d", rate, j+1), rate, blockSecs, false))
		}
	}
	return probes
}

// searchLadder measures the window's rungs in WindowBlocks rounds, up the
// window then down it, so each of them samples the whole search and no
// rung always follows the same neighbour. When base (light and heavy)
// passes and the crossing has left the window, it probes the rungs 1, 2,
// 4, ... above the window while the last probe passes, or as far below it
// while the last probe fails, so a few probes reach any rung of the
// ladder. It returns each rung's results, empty for rungs not probed.
func (b *bench) searchLadder(probes [][]*phase, base bool) [][]*phaseResult {
	rates := b.sp.ladder(b.ws)
	wlo, whi := b.sp.window(b.ws)
	probed := make([][]*phaseResult, len(rates))
	probe := func(i, j int) {
		res := b.runPhase(probes[i][j])
		b.report(res)
		probed[i] = append(probed[i], res)
	}
	for j := 0; j < b.sp.WindowBlocks; j++ {
		for n := 0; n <= whi-wlo; n++ {
			i := wlo + n
			if j%2 == 1 {
				i = whi - n
			}
			probe(i, j)
		}
	}
	if !base {
		return probed
	}
	passes := func(i int) bool { return b.judge("", rates[i], probed[i]).pass }
	for i, d := whi, 1; i < len(rates)-1 && passes(i); d *= 2 {
		i = min(whi+d, len(rates)-1)
		probe(i, 0)
	}
	for i, d := wlo, 1; i > 0 && !passes(i); d *= 2 {
		i = max(wlo-d, 0)
		probe(i, 0)
	}
	return probed
}

// ladderRate judges light, heavy and the probed ladder rungs, after the
// output check so that wrong outputs count as failures, prints them and
// returns max_rate_rps.
func (b *bench) ladderRate(light, heavy []*phaseResult, probed [][]*phaseResult) float64 {
	rates := b.sp.ladder(b.ws)
	judged := []rung{b.judge("light", b.ws.LightRPS, light), b.judge("heavy", b.ws.HeavyRPS, heavy)}
	for i, rs := range probed {
		if len(rs) > 0 {
			judged = append(judged, b.judge(fmt.Sprintf("rung%.0f", rates[i]), rates[i], rs))
		}
	}
	for _, r := range judged {
		b.printf("rung %-8s rate=%.1f/s blocks=%d p50_ms=%.3f p90_ms=%.3f limit_ms=%g failed=%d growing=%v pass=%v\n",
			r.name, r.rate, len(r.blocks), finite(r.p50), finite(r.p90), b.ws.LimitMs, r.failures, r.growing, r.pass)
	}
	maxRate := maxRate(judged, b.ws.LimitMs)
	wlo, whi := b.sp.window(b.ws)
	b.printf("max_rate_rps=%.2f window=%.1f..%.1f/s\n", maxRate, rates[wlo], rates[whi])
	return maxRate
}

// maxRate is the rate at which p90 latency reaches limit, from judged rungs
// in rate order (light, heavy, then ladder rungs). It fits a line of log
// p90 against log rate through the ladder rungs around the first failing
// rung: up to three below it and two from it. Pooling those rungs, rather
// than reading only the two that bracket the limit, averages out a rung
// that a burst of long requests pushed over the limit or that a quiet
// spell let through. The fit's crossing is kept within the rungs it
// spans and the passing rung below them; without a rising line it falls
// back to interpolating between the first failing rung and the one below.
// maxRate is 0 when light fails and the top rung's rate when none fails.
func maxRate(rs []rung, limit float64) float64 {
	f := -1
	for i, r := range rs {
		if !r.pass {
			f = i
			break
		}
	}
	switch {
	case f == 0:
		return 0
	case f < 0:
		return rs[len(rs)-1].rate
	}
	lo, hi := max(2, f-3), min(len(rs), f+2)
	if hi-lo >= 2 {
		if k, ok := knee(rs[lo:hi], limit); ok {
			return min(max(k, rs[max(1, lo-1)].rate), rs[hi-1].rate)
		}
	}
	return crossing(rs[f-1], rs[f], limit)
}

// knee estimates the rate at which p90 latency reaches limit from a
// least-squares line of log p90 against log rate through the given rungs.
// ok is false when the rungs give no rising line.
func knee(probes []rung, limit float64) (rate float64, ok bool) {
	var xs, ys []float64
	for _, r := range probes {
		if r.p90 > 0 && !math.IsInf(r.p90, 1) {
			xs = append(xs, math.Log(r.rate))
			ys = append(ys, math.Log(r.p90))
		}
	}
	if len(xs) < 2 {
		return 0, false
	}
	mx, my := mean(xs), mean(ys)
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	slope := sxy / sxx
	if !(slope > 0) {
		return 0, false
	}
	return math.Exp(mx + (math.Log(limit)-my)/slope), true
}

// crossing estimates the rate at which p90 latency reaches limit between a
// passing rung lo and the failing rung hi above it, interpolating log p90
// linearly in log rate. A rung that failed with its p90 still under the
// limit (a growing backlog or failed requests) gives lo's rate.
func crossing(lo, hi rung, limit float64) float64 {
	if !(hi.p90 > limit) || math.IsInf(hi.p90, 1) || lo.p90 <= 0 {
		return lo.rate
	}
	f := math.Log(limit/lo.p90) / math.Log(hi.p90/lo.p90)
	return lo.rate * math.Pow(hi.rate/lo.rate, min(max(f, 0), 1))
}

// runPeak runs the closed-loop phase and returns it with the live heap its
// fixed load holds above the idle live heap before it, in MB, a figure that
// does not depend on how far up the ladder a run got. The second collection
// empties the sync.Pool victim caches the first one only demotes.
func (b *bench) runPeak(ph *phase) (*phaseResult, float64) {
	runtime.GC()
	runtime.GC()
	base := readRuntime().live
	res := b.runPhase(ph)
	return res, float64(max(res.liveUnderLoad, base)-base) / 1e6
}

// check compares every completed request's outputs bit for bit with
// cellgraph.ExecuteSequential on the same input, computing each distinct
// input's oracle once, on GOMAXPROCS goroutines. Mismatching requests are
// marked failed; the count of them is returned.
func (b *bench) check(results []*phaseResult) (int, error) {
	start := nowNs()
	byInput := map[int][]*rec{}
	for _, res := range results {
		for _, r := range res.recs {
			if r.ok() {
				byInput[r.in] = append(byInput[r.in], r)
			}
		}
	}
	ins := make([]int, 0, len(byInput))
	for in := range byInput {
		ins = append(ins, in)
	}
	sort.Ints(ins)
	var (
		mu    sync.Mutex
		wrong int
		first error
		wg    sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range next {
				want, err := b.oracle(in)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				for _, r := range byInput[in] {
					if err == nil && !sameBits(r.out, want) {
						r.wrong = true
						wrong++
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, in := range ins {
		next <- in
	}
	close(next)
	wg.Wait()
	if first != nil {
		return 0, fmt.Errorf("output check: %w", first)
	}
	n := 0
	for _, rs := range byInput {
		n += len(rs)
	}
	b.printf("output check: %d completed requests over %d distinct inputs, %d wrong, %.1f s\n", n, len(ins), wrong, float64(nowNs()-start)/1e9)
	return wrong, nil
}

// oracle runs input in sequentially and returns its flattened results.
func (b *bench) oracle(in int) ([]float32, error) {
	x := &b.inputs[in]
	g, _, err := b.sys.unfold(x)
	if err != nil {
		return nil, err
	}
	res, err := cellgraph.ExecuteSequential(g)
	if err != nil {
		return nil, err
	}
	want := make([]float32, resultLen(b.sys, x))
	if !flatten(want, b.sys.results(x), res) {
		return nil, fmt.Errorf("input %d: sequential results do not match the expected names or sizes", in)
	}
	return want, nil
}
