package main

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"batchmaker/internal/core"
	"batchmaker/internal/server"
)

// epoch anchors every timestamp of a run on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// rec is one request's life as the benchmark saw it. The generator writes
// the send-side fields before handing the record to the collector, which
// writes the completion-side fields.
type rec struct {
	in     int // index into bench.inputs
	dueNs  int64
	sentNs int64
	doneNs int64
	// unfoldNs and admitNs time the two calls of the request path (traced
	// phases only); durableNs is send→AdmitDurable return (traced,
	// journaled).
	unfoldNs, admitNs, durableNs int64
	id                           core.RequestID
	err                          error
	// out holds the flattened results; badShape marks results missing a
	// name or of the wrong size.
	out      []float32
	badShape bool
	// wrong marks outputs that differ from the sequential oracle.
	wrong bool
	h     *server.Handle
}

func (r *rec) ok() bool { return r.err == nil && !r.badShape && !r.wrong }

// phase is one stretch of offered load: an open loop at a fixed rate (due
// offsets drawn beforehand) or a closed loop with a fixed number of
// requests outstanding.
type phase struct {
	name        string
	rate        float64
	offsets     []int64 // open loop: due offsets from the phase start
	outstanding int     // closed loop
	durNs       int64
	traced      bool
}

// phaseResult holds one phase's records and counter deltas, taken from the
// phase start until its last request resolved.
type phaseResult struct {
	ph         *phase
	recs       []*rec
	startNs    int64
	endNs      int64
	backlogMid int64
	backlogEnd int64
	before     server.Stats
	after      server.Stats
	cpuNs      int64
	allocs     uint64
	// peakCellsPerS is the closed loop's executed-cell rate after ramp-up,
	// over the window between the windowA and windowB snapshots.
	peakCellsPerS    float64
	windowA, windowB server.Stats
	windowNs         int64
	// liveUnderLoad is the mean live heap of the two collections that
	// bracket the window.
	liveUnderLoad uint64
	// coll is the collector's work during the phase.
	coll collectorLoad
}

func (p *phaseResult) cells() int { return p.after.CellsRun - p.before.CellsRun }

// failures counts requests that failed, were shed or expired, or returned
// malformed results (wrong outputs are counted by the output check).
func (p *phaseResult) failures() int {
	n := 0
	for _, r := range p.recs {
		if !r.ok() {
			n++
		}
	}
	return n
}

// latenciesMs returns each sent request's latency from its due time, with
// failures as +Inf so they miss every limit.
func (p *phaseResult) latenciesMs() []float64 {
	lat := make([]float64, len(p.recs))
	for i, r := range p.recs {
		if r.ok() {
			lat[i] = float64(r.doneNs-r.dueNs) / 1e6
		} else {
			lat[i] = math.Inf(1)
		}
	}
	return lat
}

// lateMs returns how late the generator sent each request.
func (p *phaseResult) lateMs() []float64 {
	late := make([]float64, len(p.recs))
	for i, r := range p.recs {
		late[i] = float64(r.sentNs-r.dueNs) / 1e6
	}
	return late
}

// achievedRPS is the completion rate over the phase: completed requests
// over the time from the phase start to the last completion.
func (p *phaseResult) achievedRPS() float64 {
	ok := len(p.recs) - p.failures()
	if p.endNs <= p.startNs {
		return 0
	}
	return float64(ok) / (float64(p.endNs-p.startNs) / 1e9)
}

// runPhase offers one phase of load to the server and waits until every
// request it sent has resolved.
func (b *bench) runPhase(ph *phase) *phaseResult {
	depth := len(ph.offsets)
	if ph.outstanding > 0 {
		depth = ph.outstanding
	}
	// The hand-off holds at most every send of the phase (or the
	// outstanding bound), so passing a request to the collector never
	// allocates.
	in := newHandoff(depth)
	var freed chan struct{}
	if ph.outstanding > 0 {
		freed = make(chan struct{}, ph.outstanding)
	}
	var completed atomic.Int64
	var wg sync.WaitGroup

	runtime.GC()
	res := &phaseResult{ph: ph, before: b.sys.srv.Stats()}
	cpu0 := cpuTimeNs()
	allocs0 := readRuntime().allocs
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.coll = b.collect(in, depth, freed, &completed)
	}()
	if ph.outstanding > 0 {
		b.closedLoop(ph, res, in, freed)
	} else {
		b.openLoop(ph, res, in, &completed)
	}
	in.close()
	wg.Wait()

	for _, r := range res.recs {
		if r.doneNs > res.endNs {
			res.endNs = r.doneNs
		}
	}
	res.after = b.sys.srv.Stats()
	res.cpuNs = cpuTimeNs() - cpu0
	res.allocs = readRuntime().allocs - allocs0
	return res
}

// openLoop sends at the phase's precomputed due times from this one
// goroutine. A late generator sends immediately; the lateness stays in the
// request's latency, which is timed from its due time.
func (b *bench) openLoop(ph *phase, res *phaseResult, in *handoff, completed *atomic.Int64) {
	res.recs = make([]*rec, 0, len(ph.offsets))
	start := nowNs() + int64(time.Millisecond)
	res.startNs = start
	sent := int64(0)
	midDone := false
	for _, off := range ph.offsets {
		due := start + off
		if d := due - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if !midDone && off >= ph.durNs/2 {
			res.backlogMid = sent - completed.Load()
			midDone = true
		}
		r := b.submit(due, ph.traced)
		res.recs = append(res.recs, r)
		if r.h != nil {
			sent++
			in.put(r)
		}
	}
	res.backlogEnd = sent - completed.Load()
}

// closedLoop keeps ph.outstanding requests in flight for the phase's
// duration and measures the executed-cell rate after a ramp-up of 15% of
// the phase.
func (b *bench) closedLoop(ph *phase, res *phaseResult, in *handoff, freed <-chan struct{}) {
	start := nowNs()
	res.startNs = start
	send := func() {
		r := b.submit(nowNs(), ph.traced)
		res.recs = append(res.recs, r)
		if r.h != nil {
			in.put(r)
		} else {
			// A rejected request never enters the loop: one fewer stays
			// outstanding.
			r.doneNs = r.sentNs
		}
	}
	// The live heap is read with the full load in flight by a collection
	// just before the window opens and one just after it closes, so the
	// reading never depends on when the collector happened to run; the
	// two collections stay outside the throughput window.
	liveUnderLoad := func() uint64 {
		runtime.GC()
		return readRuntime().live
	}
	var liveA uint64
	for i := 0; i < ph.outstanding; i++ {
		send()
	}
	ramp := time.NewTimer(time.Duration(ph.durNs * 15 / 100))
	end := time.NewTimer(time.Duration(ph.durNs))
	defer ramp.Stop()
	defer end.Stop()
	var tA int64
	for {
		select {
		case <-freed:
			send()
		case <-ramp.C:
			liveA = liveUnderLoad()
			res.windowA, tA = b.sys.srv.Stats(), nowNs()
		case <-end.C:
			res.windowB, res.windowNs = b.sys.srv.Stats(), nowNs()-tA
			res.peakCellsPerS = float64(res.windowB.CellsRun-res.windowA.CellsRun) / (float64(res.windowNs) / 1e9)
			res.liveUnderLoad = (liveA + liveUnderLoad()) / 2
			return
		}
	}
}

// submit does what cmd/batchmaker's app.handle does for one request —
// unfold the generated input, attach the journal payload, submit — and
// records its send time.
func (b *bench) submit(due int64, traced bool) *rec {
	r := b.newRec()
	r.dueNs = due
	in := &b.inputs[r.in]
	r.sentNs = nowNs()
	g, payload, err := b.sys.unfold(in)
	var t1 int64
	if traced {
		t1 = nowNs()
		r.unfoldNs = t1 - r.sentNs
	}
	if err != nil {
		r.err = err
		return r
	}
	h, err := b.sys.srv.SubmitAsyncOpts(g, server.SubmitOpts{JournalPayload: payload})
	if traced {
		r.admitNs = nowNs() - t1
	}
	if err != nil {
		r.err = err
		return r
	}
	r.h, r.id = h, h.ID()
	if traced && b.durable != nil {
		// The waiter's buffer holds every planned open-loop send; a closed
		// loop may send more. A request that finds it full goes unmeasured
		// rather than stall the generator.
		select {
		case b.durable <- durableWait{r: r, h: h}:
		default:
		}
	}
	return r
}

// handoff passes sent requests from the generator to the collector
// without allocating: the generator appends to a queue sized for the whole
// phase and signals wake, whose element has no size, so the collector's
// select needs no receive buffer for it.
type handoff struct {
	mu     sync.Mutex
	queue  []*rec
	closed bool
	wake   chan struct{}
}

func newHandoff(depth int) *handoff {
	return &handoff{queue: make([]*rec, 0, depth), wake: make(chan struct{}, 1)}
}

func (h *handoff) signal() {
	select {
	case h.wake <- struct{}{}:
	default: // a wake-up is already pending; it will take this request too
	}
}

func (h *handoff) put(r *rec) {
	h.mu.Lock()
	h.queue = append(h.queue, r)
	h.mu.Unlock()
	h.signal()
}

// close tells the collector that no more requests follow.
func (h *handoff) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.signal()
}

// take appends the queued requests to dst and empties the queue.
func (h *handoff) take(dst []*rec) ([]*rec, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	dst = append(dst, h.queue...)
	h.queue = h.queue[:0]
	return dst, h.closed
}

// selectBig is the case count from which a reflect.Select call allocates
// the same whatever its cases: reflect puts the case array of a call over
// more than four cases on the heap, and the runtime's own arrays for it
// are past the tiny-object size that runtime/metrics counts only in
// blocks.
const selectBig = 5

// collectorLoad counts the collector's reflect.Select calls by case count
// (calls[k] for k cases, calls[selectBig] for selectBig or more) and the
// cases they scanned. selectCost turns the counts into allocations and CPU
// time.
type collectorLoad struct {
	calls [selectBig + 1]int
	cases int
}

func (l *collectorLoad) add(o collectorLoad) {
	for k := range l.calls {
		l.calls[k] += o.calls[k]
	}
	l.cases += o.cases
}

// collect is the single goroutine that observes completions: it selects
// over the Done channels of every outstanding request and stamps each one
// the moment it resolves, in completion order. Its slices are sized for
// depth outstanding requests up front.
func (b *bench) collect(in *handoff, depth int, freed chan<- struct{}, completed *atomic.Int64) collectorLoad {
	var load collectorLoad
	cases := make([]reflect.SelectCase, 1, depth+1)
	cases[0] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(in.wake)}
	pending := make([]*rec, 1, depth+1)
	fresh := make([]*rec, 0, depth)
	open := true
	for open || len(cases) > 1 {
		load.calls[min(len(cases), selectBig)]++
		load.cases += len(cases)
		i, _, _ := reflect.Select(cases)
		if i == 0 {
			var closed bool
			fresh, closed = in.take(fresh[:0])
			for _, r := range fresh {
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(r.h.Done())})
				pending = append(pending, r)
			}
			if closed {
				cases[0].Chan = reflect.Value{} // ignored by Select from now on
				open = false
			}
			continue
		}
		done := nowNs()
		r := pending[i]
		last := len(cases) - 1
		cases[i], pending[i] = cases[last], pending[last]
		cases, pending = cases[:last], pending[:last]
		b.finish(r, done)
		completed.Add(1)
		if freed != nil {
			freed <- struct{}{}
		}
	}
	return load
}

// selectCost is a calibration of reflect.Select against already-closed
// channels, taken once per run before any phase: the heap allocations of a
// call by case count, as allocs_per_cell counts them, and the CPU time of
// a call as a fixed part plus a part per case.
type selectCost struct {
	allocs         [selectBig + 1]float64
	nsCall, nsCase float64
}

func calibrateSelect() selectCost {
	done := make(chan struct{})
	close(done)
	timed := func(k, n int) (ns, allocs float64) {
		cases := make([]reflect.SelectCase, k)
		for i := range cases {
			cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(done)}
		}
		reflect.Select(cases)
		a0 := readRuntime().allocs
		start := nowNs()
		for i := 0; i < n; i++ {
			reflect.Select(cases)
		}
		ns = float64(nowNs()-start) / float64(n)
		return ns, float64(readRuntime().allocs-a0) / float64(n)
	}
	// The runtime counts tiny allocations (under 16 bytes) a block at a
	// time, so a call's count can be fractional; the idle server's own
	// allocations during the calibration are negligible beside 20000
	// calls.
	var c selectCost
	for k := 1; k <= selectBig; k++ {
		_, c.allocs[k] = timed(k, 20000)
	}
	const small, big = 1, 65
	nsSmall, _ := timed(small, 20000)
	nsBig, _ := timed(big, 20000)
	c.nsCase = max(0, (nsBig-nsSmall)/(big-small))
	c.nsCall = nsSmall - c.nsCase*small
	return c
}

// allocs and ns estimate what the collector's calls cost.
func (c selectCost) allocsOf(l collectorLoad) float64 {
	sum := 0.0
	for k, n := range l.calls {
		sum += c.allocs[k] * float64(n)
	}
	return sum
}

func (c selectCost) nsOf(l collectorLoad) float64 {
	calls := 0
	for _, n := range l.calls {
		calls += n
	}
	return c.nsCall*float64(calls) + c.nsCase*float64(l.cases)
}

// finish records a resolved request and copies its results out, dropping
// the handle so the server's result tensors can be collected.
func (b *bench) finish(r *rec, done int64) {
	r.doneNs = done
	res, err := r.h.Result()
	r.h = nil
	if err != nil {
		r.err = err
		return
	}
	r.badShape = !flatten(r.out, b.sys.results(&b.inputs[r.in]), res)
}

// newRec hands out the next preallocated record. Requests draw inputs in
// order, wrapping around the generated pool.
func (b *bench) newRec() *rec {
	if b.nextRec == len(b.recs) {
		b.recs = b.makeRecs(b.drawn, len(b.recs)/2+64)
		b.nextRec = 0
	}
	r := &b.recs[b.nextRec]
	b.nextRec++
	b.drawn++
	return r
}

// makeRecs allocates n records for requests first..first+n-1, each with its
// input index and a result buffer. Records for every open-loop send are
// made before the run's first phase; the closed loop's, whose count depends
// on the program's speed, are made as newRec runs out, a few allocations a
// phase. The collector's own allocations are counted (collectorLoad) and
// subtracted from allocs_per_cell.
func (b *bench) makeRecs(first, n int) []rec {
	total := 0
	for i := 0; i < n; i++ {
		total += resultLen(b.sys, &b.inputs[(first+i)%len(b.inputs)])
	}
	pool := make([]float32, total)
	recs := make([]rec, n)
	off := 0
	for i := range recs {
		in := (first + i) % len(b.inputs)
		l := resultLen(b.sys, &b.inputs[in])
		recs[i] = rec{in: in, out: pool[off : off+l : off+l]}
		off += l
	}
	return recs
}

// cpuTimeNs is the process's user+system CPU time.
func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
