package main

import (
	"fmt"
	"math"
	"time"

	"batchmaker/internal/cellgraph"
	"batchmaker/internal/core"
	"batchmaker/internal/obsv"
	"batchmaker/internal/rnn"
	"batchmaker/internal/server"
	"batchmaker/internal/tensor"
)

// cellNames are the per-type metric suffixes across all workloads. A type
// a workload does not serve reports 0.
var cellNames = []string{"lstm", "leaf", "internal", "encoder", "decoder"}

// runTraced produces the per-layer ledger. Its live phases time the calls
// the benchmark makes into the server (unfold, admit, AdmitDurable) and read
// the server's public counters; its micro-measurements then call each
// layer's public functions on the workload's own graphs and shapes.
func (b *bench) runTraced() (result, error) {
	ws, sp, s := b.ws, b.sp, b.opts.seconds
	warm := b.openPhase("warmup", ws.LightRPS, sp.WarmupSeconds, false)
	heavy := b.openPhase("heavy", ws.HeavyRPS, s*sp.Share.Heavy, true)
	lightU := b.openPhase("light", ws.LightRPS, s*sp.Share.Light, false)
	lightT := b.openPhase("light-tr", ws.LightRPS, s*sp.Share.Light, true)
	peak := b.closedPhase("peak", s*sp.Share.Peak, true)
	probes := b.planLadder()
	planned := []*phase{warm, heavy, lightU, lightT, peak}
	for _, ps := range probes {
		planned = append(planned, ps...)
	}
	if err := b.prepare(planned); err != nil {
		return result{}, err
	}
	srv := b.sys.srv
	if b.sys.jnl != nil {
		b.durable = make(chan durableWait, len(b.recs))
		b.durableWG.Add(1)
		go func() {
			defer b.durableWG.Done()
			for dw := range b.durable {
				if err := dw.h.AdmitDurable(); err != nil {
					dw.r.durableNs = -1
					continue
				}
				dw.r.durableNs = nowNs() - dw.r.sentNs
			}
		}()
	}

	b.report(b.runPhase(warm))
	rm0 := readRuntime()
	sm := srv.Metrics()
	types0, used0, cap0 := sm.TypesByCells(), sm.SlotsUsed.Value(), sm.SlotsCap.Value()
	hv := b.runPhase(heavy)
	b.report(hv)
	types1, used1, cap1 := sm.TypesByCells(), sm.SlotsUsed.Value(), sm.SlotsCap.Value()
	_, queue := sm.Queuing.Query()
	_, compute := sm.Computation.Query()
	lu := b.runPhase(lightU)
	b.report(lu)
	q0, c0 := registryStages(sm)
	lt := b.runPhase(lightT)
	b.report(lt)
	q1, c1 := registryStages(sm)
	pk, heapMB := b.runPeak(peak)
	b.report(pk)
	rm1 := readRuntime()
	if b.durable != nil {
		close(b.durable)
		b.durableWG.Wait()
		b.durable = nil
	}

	// The rate ladder runs last, untraced, so the counters above cover
	// the traced phases only.
	base := b.judge("light", ws.LightRPS, []*phaseResult{lu}).pass && b.judge("heavy", ws.HeavyRPS, []*phaseResult{hv}).pass
	probed := b.searchLadder(probes, base)

	measured := []*phaseResult{hv, lu, lt, pk}
	all := measured
	for _, rs := range probed {
		all = append(all, rs...)
	}
	wrong, err := b.check(all)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// server: admission, queueing, compute, batching, dispatch, workers.
	var admitUs, unfoldUs, durableMs []float64
	for _, res := range []*phaseResult{hv, lt, pk} {
		for _, r := range res.recs {
			if r.id != 0 {
				admitUs = append(admitUs, float64(r.admitNs)/1e3)
			}
			if r.durableNs > 0 {
				durableMs = append(durableMs, float64(r.durableNs)/1e6)
			}
		}
	}
	for _, r := range lt.recs {
		unfoldUs = append(unfoldUs, float64(r.unfoldNs)/1e3)
	}
	put("cellgraph.unfold_us.p50", quantile(unfoldUs, 0.5), "us")
	put("server.admit_us.p50", quantile(admitUs, 0.5), "us")
	put("server.admit_us.p99", quantile(admitUs, 0.99), "us")
	put("server.queue_ms.p50", durMs(queue, 0), "ms")
	put("server.queue_ms.p90", durMs(queue, 1), "ms")
	put("server.compute_ms.p50", durMs(compute, 0), "ms")
	put("server.compute_ms.p90", durMs(compute, 1), "ms")
	rows := rowsPerTask(b.sys, types0, types1)
	for _, n := range cellNames {
		put("server.rows_per_task."+n, rows[n], "rows")
	}
	put("server.slot_fill", ratio(float64(used1-used0), float64(cap1-cap0)), "ratio")
	put("server.dispatch_us.p50", float64(hv.after.DispatchP50)/1e3, "us")
	put("server.dispatch_us.p99", float64(hv.after.DispatchP99)/1e3, "us")
	execHv := execNs(hv.after) - execNs(hv.before)
	put("server.worker_ns_per_row", ratio(execHv, float64(hv.cells())), "ns")
	put("server.worker_busy_share", ratio(execNs(pk.windowB)-execNs(pk.windowA), float64(workers)*float64(pk.windowNs)), "ratio")
	var shed, expired, panics, retries, sent, failed int
	for _, res := range all {
		o0, o1 := res.before.Outcomes, res.after.Outcomes
		shed += o1.Rejected - o0.Rejected
		expired += o1.Expired - o0.Expired
		panics += o1.RecoveredPanics - o0.RecoveredPanics
		retries += o1.Retries - o0.Retries
		sent += len(res.recs)
		failed += res.failures()
	}
	put("server.failed.shed", float64(shed), "count")
	put("server.failed.expired", float64(expired), "count")
	put("server.failed.panic", float64(panics), "count")
	put("server.failed.retry", float64(retries), "count")
	put("failed_share", ratio(float64(failed), float64(sent)), "ratio")

	// Open-loop latency from the due time: light from the untraced light
	// phase, heavy from the heavy phase, whose only tracing is a clock read
	// around two calls.
	for _, p := range []struct {
		name string
		res  *phaseResult
	}{{"light", lu}, {"heavy", hv}} {
		lat := p.res.latenciesMs()
		put("lat_p50_ms."+p.name, finite(quantile(lat, 0.5)), "ms")
		put("lat_p90_ms."+p.name, finite(quantile(lat, 0.9)), "ms")
	}
	put("max_rate_rps", b.ladderRate([]*phaseResult{lu}, []*phaseResult{hv}, probed), "req/s")
	put("peak_cells_per_s", pk.peakCellsPerS, "cells/s")
	put("heap_peak_mb", heapMB, "MB")

	// loadgen: how late the single generator sent, over the open loops.
	var late []float64
	for _, res := range []*phaseResult{hv, lu, lt} {
		late = append(late, res.lateMs()...)
	}
	put("loadgen.late_ms.p99", quantile(late, 0.99), "ms")
	put("loadgen.late_ms.max", maxOf(late), "ms")
	put("loadgen.late_share", shareAbove(late, b.sp.LateThresholdMs), "ratio")

	// trace: overhead of the benchmark's own timing, and whether stages
	// measured apart account for the traced light phase's latency.
	overhead := ratio(quantile(lt.latenciesMs(), 0.5), quantile(lu.latenciesMs(), 0.5))
	put("trace.overhead_ratio", overhead, "ratio")
	st := stageSum(lt, q1.sub(q0), c1.sub(c0))
	put("trace.stage_sum_ratio", st.ratio, "ratio")
	tol := b.sp.StageSumTolerance
	stageOK := st.n > 0 && st.ratioNoSubmit <= 1+tol && st.ratio >= 1-tol
	b.printf("stage-sum check, in means over %d requests of the traced light phase: (late+unfold+queue+compute)/latency=%.4f must be at most 1+%g and (late+unfold+submit+queue+compute)/latency=%.4f at least 1-%g, pass=%v\n",
		st.n, st.ratioNoSubmit, tol, st.ratio, tol, stageOK)
	b.printf("stage means (ms): latency=%.3f late=%.3f unfold=%.3f submit=%.3f queue=%.3f compute=%.3f (queue and compute from the server's registry, over %d requests)\n",
		st.lat, st.late, st.unfold, st.submit, st.queue, st.compute, st.serverN)

	// loadgen: the benchmark collector's own cost, from the select
	// calibration, over the traced live phases.
	var coll collectorLoad
	collSent := 0
	for _, res := range measured {
		coll.add(res.coll)
		collSent += len(res.recs)
	}
	put("loadgen.collector_allocs_per_req", ratio(b.selCost.allocsOf(coll), float64(collSent)), "count")
	put("loadgen.collector_us_per_req", ratio(b.selCost.nsOf(coll)/1e3, float64(collSent)), "us")

	// go runtime over the traced live phases.
	put("go.gc_cpu_share", ratio(rm1.gcCPU-rm0.gcCPU, rm1.totalCPU-rm0.totalCPU), "ratio")
	put("go.gc_cycles", float64(rm1.gcCycles-rm0.gcCycles), "count")
	var dropped uint64
	for _, r := range srv.Observer().Rings() {
		dropped += r.Dropped()
	}
	put("obsv.span_dropped", float64(dropped), "count")

	// journal.
	var recsPerFsync, bytesPerReq, jerrs float64
	if jm := b.sys.jm; jm != nil {
		records := jm.AdmitRecords.Value() + jm.CancelRecords.Value() + jm.TerminalRecords.Value()
		recsPerFsync = ratio(float64(records), float64(jm.Fsyncs.Value()))
		bytesPerReq = ratio(float64(jm.Bytes.Value()), float64(srv.Stats().Outcomes.Admitted))
		jerrs = float64(jm.Errors.Value())
	}
	put("journal.durable_ms.p50", zeroIfNaN(quantile(durableMs, 0.5)), "ms")
	put("journal.durable_ms.p99", zeroIfNaN(quantile(durableMs, 0.99)), "ms")
	put("journal.records_per_fsync", recsPerFsync, "ratio")
	put("journal.bytes_per_req", bytesPerReq, "B")
	put("journal.errors", jerrs, "count")

	// Layer calls timed from outside, on the workload's graphs and shapes.
	meanConc := 0.0
	for _, r := range hv.recs {
		if r.ok() {
			meanConc += float64(r.doneNs - r.sentNs)
		}
	}
	meanConc /= float64(hv.endNs - hv.startNs)
	if err := b.micro(put, rows, meanConc); err != nil {
		return result{}, err
	}
	b.printf("note: tensor.macs_per_cell and tensor.weight_bytes_per_task are computed from weight shapes, not measured; per-type metrics of types this workload does not serve, and journal metrics without a journal, read 0\n")
	b.printf("note: heavy-phase mean concurrency %.2f requests; server.queue_ms/compute_ms are batchmaker_request_{queuing,computation}_seconds over the warmup and heavy phases\n", meanConc)

	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("per-layer metric %s is %v", name, v.Value)
		}
	}
	return result{Correct: wrong == 0 && stageOK, Attempted: sent, Failed: failed, Metrics: m}, nil
}

// stageTotal is a count and sum of one server latency stage.
type stageTotal struct {
	n   int64
	sum time.Duration
}

func (t stageTotal) sub(o stageTotal) stageTotal { return stageTotal{t.n - o.n, t.sum - o.sum} }

// registryStages reads the all-time counts and sums of the server's
// queueing (admit to first execution) and computation (first execution to
// completion) summaries.
func registryStages(sm *obsv.ServingMetrics) (queue, compute stageTotal) {
	return stageTotal{sm.Queuing.Count(), sm.Queuing.Sum()}, stageTotal{sm.Computation.Count(), sm.Computation.Sum()}
}

// stageBreakdown is the traced light phase's latency ledger in means, in
// milliseconds, and the ratios of the stages' sum, with and without the
// submit call, to the mean latency.
type stageBreakdown struct {
	n, serverN                                int
	ratio, ratioNoSubmit                      float64
	late, unfold, submit, queue, compute, lat float64
}

// stageSum reconciles stages measured by different clocks: generator
// lateness, the unfold call and the SubmitAsyncOpts call are timed by the
// benchmark, queueing and computation by the server's own summaries over
// the same phase (read as count and sum deltas, so they cover exactly its
// requests), and latency is the benchmark's due-to-done time. Means add up
// where medians do not. The submit call is the one stage that overlaps
// another: it returns only after the server's admit reply, and later still
// when the generator is descheduled, while the request already queues or
// runs. So the sum without it must not exceed the mean latency, and the sum
// with it must reach it; both up to the collector's delivery lag, the one
// remainder no stage covers.
func stageSum(res *phaseResult, queue, compute stageTotal) stageBreakdown {
	var sb stageBreakdown
	for _, r := range res.recs {
		if !r.ok() {
			continue
		}
		sb.n++
		sb.lat += float64(r.doneNs - r.dueNs)
		sb.late += float64(r.sentNs - r.dueNs)
		sb.unfold += float64(r.unfoldNs)
		sb.submit += float64(r.admitNs)
	}
	if sb.n == 0 || queue.n == 0 || compute.n == 0 {
		return stageBreakdown{}
	}
	sb.serverN = int(queue.n)
	perReq := func(sum float64) float64 { return sum / float64(sb.n) / 1e6 }
	sb.lat, sb.late, sb.unfold, sb.submit = perReq(sb.lat), perReq(sb.late), perReq(sb.unfold), perReq(sb.submit)
	sb.queue = float64(queue.sum) / float64(queue.n) / 1e6
	sb.compute = float64(compute.sum) / float64(compute.n) / 1e6
	sb.ratioNoSubmit = (sb.late + sb.unfold + sb.queue + sb.compute) / sb.lat
	sb.ratio = sb.ratioNoSubmit + sb.submit/sb.lat
	return sb
}

// micro times each layer's public calls on the workload's own graphs and
// shapes.
func (b *bench) micro(put func(string, float64, string), rows map[string]float64, meanConc float64) error {
	n := min(len(b.inputs), 256)
	graphs := make([]*cellgraph.Graph, n)
	for i := range graphs {
		g, _, err := b.sys.unfold(&b.inputs[i])
		if err != nil {
			return err
		}
		graphs[i] = g
	}
	widths := map[string]map[string]int{}
	for _, ci := range b.sys.cells {
		widths[ci.cell.TypeKey()] = ci.cell.(rnn.OutputSized).OutputWidths()
	}

	// cellgraph: per-request state construction, as admission does it.
	us, allocs := perCall(graphs, func(i int, g *cellgraph.Graph) {
		st, err := cellgraph.NewState(g)
		if err != nil {
			panic(err)
		}
		st.PreallocOutputs(func(id cellgraph.NodeID) map[string]int { return widths[g.Nodes[id].Cell.TypeKey()] })
	})
	put("cellgraph.state_us_per_req", us, "us")
	put("cellgraph.state_allocs_per_req", allocs, "count")
	us, allocs = perCall(graphs, func(i int, g *cellgraph.Graph) {
		if _, err := core.NewTracker(core.RequestID(i+1), g); err != nil {
			panic(err)
		}
	})
	put("core.tracker_us_per_req", us, "us")
	put("core.tracker_allocs_per_req", allocs, "count")

	ns, err := schedReplay(b.sys, graphs, max(1, int(math.Round(meanConc))))
	if err != nil {
		return err
	}
	put("core.sched_ns_per_cell", ns, "ns")

	// rnn: one batched step per type at its heavy-phase rows per task.
	steps := map[string]float64{}
	for _, ci := range b.sys.cells {
		steps[ci.name] = stepNsPerRow(ci, batchOf(rows[ci.name]))
	}
	for _, n := range cellNames {
		put("rnn.step_ns_per_row."+n, steps[n], "ns")
	}

	// tensor: the largest float32 and int8 weight matmuls of the workload,
	// at their type's batch, and per-type shape arithmetic.
	var f32, i8 matShape
	macs, bytes := map[string]float64{}, map[string]float64{}
	for _, ci := range b.sys.cells {
		for name, w := range ci.cell.(rnn.DefExporter).Weights() {
			if name == "embed" {
				continue // a gathered table, not streamed per task
			}
			size := float64(w.Size())
			quant := ci.prec == rnn.PrecisionInt8 && name == "w"
			if w.Rank() == 2 {
				macs[ci.name] += size
				sh := matShape{m: batchOf(rows[ci.name]), k: w.Dim(0), n: w.Dim(1)}
				if quant && sh.k*sh.n > i8.k*i8.n {
					i8 = sh
				} else if !quant && sh.k*sh.n > f32.k*f32.n {
					f32 = sh
				}
			}
			if quant {
				bytes[ci.name] += size
			} else {
				bytes[ci.name] += 4 * size
			}
		}
	}
	put("tensor.matmul_gmac_per_s.f32", matmulF32(f32), "GMAC/s")
	put("tensor.matmul_gmac_per_s.int8", matmulInt8(i8), "GMAC/s")
	for _, n := range cellNames {
		put("tensor.macs_per_cell."+n, macs[n], "count")
		put("tensor.weight_bytes_per_task."+n, bytes[n], "B")
	}
	b.printf("shapes: f32 matmul m=%d k=%d n=%d, int8 matmul m=%d k=%d n=%d\n", f32.m, f32.k, f32.n, i8.m, i8.k, i8.n)
	return nil
}

// perCall runs fn over graphs in passes until 100ms have elapsed and
// returns microseconds and heap allocations per call.
func perCall(graphs []*cellgraph.Graph, fn func(int, *cellgraph.Graph)) (us, allocs float64) {
	calls := 0
	a0 := readRuntime().allocs
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for i, g := range graphs {
			fn(i, g)
		}
		calls += len(graphs)
	}
	el := time.Since(start)
	a1 := readRuntime().allocs
	return float64(el.Nanoseconds()) / 1e3 / float64(calls), float64(a1-a0) / float64(calls)
}

// schedReplay drives the workload's graphs through core.Scheduler and
// core.Tracker with no math, keeping conc requests live on two workers the
// way the server's request processor and scheduler loop do, and returns
// nanoseconds per cell. Trackers are built before the clock starts.
func schedReplay(sys *system, graphs []*cellgraph.Graph, conc int) (float64, error) {
	cfg := core.Config{}
	for _, ci := range sys.cells {
		cfg.Types = append(cfg.Types, core.TypeConfig{Key: ci.cell.TypeKey(), Priority: ci.priority, MaxBatch: ci.maxBatch})
	}
	var total time.Duration
	cells := 0
	for pass := 0; pass < 3; pass++ {
		sched, err := core.NewScheduler(cfg)
		if err != nil {
			return 0, err
		}
		trackers := make([]*core.Tracker, len(graphs)+1)
		for i, g := range graphs {
			if trackers[i+1], err = core.NewTracker(core.RequestID(i+1), g); err != nil {
				return 0, err
			}
			cells += len(g.Nodes)
		}
		add := func(specs []core.SubgraphSpec) error {
			for _, sp := range specs {
				if _, err := sched.AddSubgraph(sp); err != nil {
					return err
				}
			}
			return nil
		}
		start := time.Now()
		live, next := 0, 1
		for next < len(trackers) || live > 0 {
			for live < conc && next < len(trackers) {
				if err := add(trackers[next].InitialSubgraphs()); err != nil {
					return 0, err
				}
				live++
				next++
			}
			progressed := false
			for w := 0; w < workers; w++ {
				for _, task := range sched.Schedule(core.WorkerID(w)) {
					progressed = true
					for _, ref := range task.Nodes {
						tr := trackers[ref.Req]
						released, err := tr.NodeDone(ref.Node)
						if err != nil {
							return 0, err
						}
						if err := add(released); err != nil {
							return 0, err
						}
						if tr.Finished() {
							live--
						}
					}
					if err := sched.TaskCompleted(task.ID); err != nil {
						return 0, err
					}
				}
			}
			if !progressed && live > 0 {
				return 0, fmt.Errorf("scheduler replay stalled with %d live requests", live)
			}
		}
		total += time.Since(start)
	}
	return float64(total.Nanoseconds()) / float64(cells), nil
}

// stepNsPerRow times StepInto with a reused arena at batch b.
func stepNsPerRow(ci cellInfo, b int) float64 {
	cell := ci.cell.(rnn.IntoStepper)
	rng := tensor.NewRNG(7)
	hidden := ci.cell.(interface{ Hidden() int }).Hidden()
	in := map[string]*tensor.Tensor{}
	for _, name := range cell.InputNames() {
		switch name {
		case "ids":
			t := tensor.New(b, 1)
			for i := 0; i < b; i++ {
				t.Set(float32(2+rng.Intn(ci.idVocab-2)), i, 0)
			}
			in[name] = t
		case "x":
			in[name] = tensor.RandNormal(rng, 1, b, lstmDim)
		default:
			in[name] = tensor.RandNormal(rng, 0.5, b, hidden)
		}
	}
	out := map[string]*tensor.Tensor{}
	for name, w := range ci.cell.(rnn.OutputSized).OutputWidths() {
		out[name] = tensor.New(b, w)
	}
	arena := tensor.NewArena(0)
	step := func() {
		if err := cell.StepInto(in, out, arena); err != nil {
			panic(err)
		}
		arena.Reset()
	}
	for i := 0; i < 3; i++ {
		step()
	}
	n := 0
	start := time.Now()
	for n < 5 || time.Since(start) < 60*time.Millisecond {
		step()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*b)
}

type matShape struct{ m, k, n int }

// matmulF32 times MatMulInto at [m,k]×[k,n] and returns GMAC/s.
func matmulF32(s matShape) float64 {
	if s.k == 0 {
		return 0
	}
	rng := tensor.NewRNG(11)
	a, w, dst := tensor.RandNormal(rng, 1, s.m, s.k), tensor.RandNormal(rng, 0.1, s.k, s.n), tensor.New(s.m, s.n)
	return gmacs(s, func() { tensor.MatMulInto(dst, a, w) })
}

// matmulInt8 times MatMulInt8Into at [m,k]×[k,n] and returns GMAC/s.
func matmulInt8(s matShape) float64 {
	if s.k == 0 {
		return 0
	}
	rng := tensor.NewRNG(13)
	src := tensor.RandNormal(rng, 1, s.m, s.k)
	a := tensor.NewInt8(s.m, s.k, false)
	tensor.QuantizeWithScaleInto(a, src, 4.0/127)
	w := tensor.QuantizeWeights(tensor.RandNormal(rng, 0.1, s.k, s.n))
	dst := tensor.New(s.m, s.n)
	return gmacs(s, func() { tensor.MatMulInt8Into(dst, a, w, nil, tensor.EpilogueNone) })
}

func gmacs(s matShape, fn func()) float64 {
	fn()
	n := 0
	start := time.Now()
	for n < 5 || time.Since(start) < 60*time.Millisecond {
		fn()
		n++
	}
	return float64(n) * float64(s.m*s.k*s.n) / float64(time.Since(start).Nanoseconds())
}

// rowsPerTask returns each served type's cells per task between two
// TypesByCells snapshots, keyed by metric suffix.
func rowsPerTask(sys *system, before, after []obsv.TypeStat) map[string]float64 {
	idx := func(ts []obsv.TypeStat, key string) obsv.TypeStat {
		for _, t := range ts {
			if t.Key == key {
				return t
			}
		}
		return obsv.TypeStat{}
	}
	out := map[string]float64{}
	for _, ci := range sys.cells {
		a, b := idx(before, ci.cell.TypeKey()), idx(after, ci.cell.TypeKey())
		out[ci.name] = ratio(float64(b.Cells-a.Cells), float64(b.Tasks-a.Tasks))
	}
	return out
}

// batchOf rounds a mean rows-per-task to a batch size of at least 1.
func batchOf(rows float64) int { return max(1, int(math.Round(rows))) }

// execNs is the server's cumulative worker time (gather + execute).
func execNs(st server.Stats) float64 { return float64(st.NsPerCell) * float64(st.CellsRun) }

func durMs(vals []time.Duration, i int) float64 {
	if i >= len(vals) {
		return 0
	}
	return float64(vals[i]) / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
