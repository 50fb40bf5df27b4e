package tensor

import (
	"runtime"
	"sync"
)

// Parallel tiled MatMul. The dispatcher splits the OUTPUT COLUMNS into
// disjoint tiles and fans them out over a persistent kernel-goroutine pool.
// Column tiling is the only decomposition that keeps the result bit-identical
// to the serial kernel: every output element dst[i,j] is computed by exactly
// one goroutine, with the same 4-row blocking and the same p-loop
// accumulation order as the serial sweep, so the float32 rounding sequence
// per element is unchanged. (Row tiling would NOT be bit-identical: the
// 4-row zero-skip groups rows differently at tile boundaries, changing which
// `+= 0*b` operations execute — visible with signed zeros, infinities and
// NaNs.) The conformance harness's oracle equivalence relies on this.
const (
	// parallelFlopThreshold gates the parallel path on problem size
	// (m*k*n fused multiply-adds). Below it, handing tiles to the pool
	// costs more than it saves and small batches stay serial.
	parallelFlopThreshold = 1 << 16
	// minTileCols is the smallest column tile worth a goroutine hand-off.
	minTileCols = 8
)

// matMulJob is one column tile of one matmul, passed to the pool by value.
type matMulJob struct {
	dst, a, b, bias []float32
	m, k, n, j0, j1 int
	wg              *sync.WaitGroup
}

var kernelPool struct {
	once    sync.Once
	jobs    chan matMulJob
	workers int
}

// wgPool recycles WaitGroups so dispatch itself allocates nothing.
var wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}

// startKernelPool spins up the persistent kernel goroutines on first use.
// They live for the process lifetime (the jobs channel is never closed) and
// are idle-parked by the runtime when no matmuls are in flight.
func startKernelPool() {
	kernelPool.workers = runtime.NumCPU()
	kernelPool.jobs = make(chan matMulJob, 4*kernelPool.workers)
	for i := 0; i < kernelPool.workers; i++ {
		go func() {
			for j := range kernelPool.jobs {
				matMulTile(j.dst, j.a, j.b, j.bias, j.m, j.k, j.n, j.j0, j.j1)
				j.wg.Done()
			}
		}()
	}
}

// matMulDispatch initializes dst (to zero, or row-broadcast bias when bias is
// non-nil) and accumulates a @ b into it, choosing between the serial kernel
// and the column-tiled parallel pool. Both paths produce bit-identical
// results; the choice is performance-only.
func matMulDispatch(dst, a, b, bias []float32, m, k, n int) {
	if m*k*n >= parallelFlopThreshold && runtime.GOMAXPROCS(0) > 1 {
		matMulParallel(dst, a, b, bias, m, k, n)
		return
	}
	matMulTile(dst, a, b, bias, m, k, n, 0, n)
}

// matMulParallel fans disjoint column tiles out over the kernel pool. The
// caller computes the last tile inline so the pool only carries tiles-1
// hand-offs and a 1-tile split degrades to the plain serial kernel.
func matMulParallel(dst, a, b, bias []float32, m, k, n int) {
	kernelPool.once.Do(startKernelPool)
	tiles := kernelPool.workers
	if max := n / minTileCols; tiles > max {
		tiles = max
	}
	if tiles <= 1 {
		matMulTile(dst, a, b, bias, m, k, n, 0, n)
		return
	}
	wg := wgPool.Get().(*sync.WaitGroup)
	wg.Add(tiles - 1)
	width, rem := n/tiles, n%tiles
	j0 := 0
	for t := 0; t < tiles; t++ {
		w := width
		if t < rem {
			w++
		}
		j1 := j0 + w
		if t == tiles-1 {
			matMulTile(dst, a, b, bias, m, k, n, j0, j1)
		} else {
			kernelPool.jobs <- matMulJob{dst: dst, a: a, b: b, bias: bias, m: m, k: k, n: n, j0: j0, j1: j1, wg: wg}
		}
		j0 = j1
	}
	wg.Wait()
	wgPool.Put(wg)
}

// matMulTile computes output columns [j0, j1) of dst = init + a @ b, where
// init is zero (bias == nil) or the row-broadcast bias. It is the kernel
// behind every MatMul variant: 4-row register blocking so one sweep of b
// serves four rows of a and each loaded weight feeds four multiply-adds.
// Per-row cost therefore drops as the batch grows — the kernel-level reason
// a batched task is cheaper than the same rows run as batch-1 tasks,
// mirroring the weight-reuse economics of batched GEMM on an accelerator.
// On AVX2 hosts the column strips the SIMD kernels cover take them; the
// result is bit-identical to the pure-Go loops either way (DESIGN.md §9).
func matMulTile(dst, a, b, bias []float32, m, k, n, j0, j1 int) {
	matMulTileWith(haveAVX2, dst, a, b, bias, m, k, n, j0, j1)
}

// matMulTileWith is matMulTile with the kernel choice explicit: simd runs
// whole 16-column (4-row blocks) and 32-column (remainder rows) strips in
// sgemm4x16/sgemm1x32 and leaves the narrower tail to the pure-Go loops,
// which are the whole kernel when simd is false and the reference the SIMD
// kernels are tested against.
func matMulTileWith(simd bool, dst, a, b, bias []float32, m, k, n, j0, j1 int) {
	for i := 0; i < m; i++ {
		row := dst[i*n+j0 : i*n+j1]
		if bias == nil {
			for j := range row {
				row[j] = 0
			}
		} else {
			copy(row, bias[j0:j1])
		}
	}
	if m == 0 || k == 0 || j0 == j1 {
		return
	}
	// The SIMD kernels reach past the element they are handed, through raw
	// pointers; this check bounds every such access. It compares lengths
	// instead of indexing the last elements, which other column tiles may
	// be writing.
	if len(dst) < m*n || len(a) < m*k || len(b) < k*n {
		panic("tensor: matmul operand shorter than its shape")
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		j := j0
		if simd {
			for ; j+16 <= j1; j += 16 {
				sgemm4x16(&dst[i*n+j], &a[i*k], &b[j], k, k, n, n)
			}
		}
		addRows4(dst, a, b, i, k, n, j, j1)
	}
	for ; i < m; i++ {
		j := j0
		if simd {
			for ; j+32 <= j1; j += 32 {
				sgemm1x32(&dst[i*n+j], &a[i*k], &b[j], k, n)
			}
		}
		addRow1(dst, a, b, i, k, n, j, j1)
	}
}

// addRows4 accumulates rows i..i+3 of a @ b into columns [j0, j1) of dst,
// skipping a step p only when all four a[r, p] are ±0: the whole block
// skips, which keeps one-hot embedding rows cheap.
func addRows4(dst, a, b []float32, i, k, n, j0, j1 int) {
	if j0 == j1 {
		return
	}
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	a2 := a[(i+2)*k : (i+3)*k]
	a3 := a[(i+3)*k : (i+4)*k]
	o0 := dst[(i+0)*n+j0 : (i+0)*n+j1]
	o1 := dst[(i+1)*n+j0 : (i+1)*n+j1]
	o2 := dst[(i+2)*n+j0 : (i+2)*n+j1]
	o3 := dst[(i+3)*n+j0 : (i+3)*n+j1]
	for p := 0; p < k; p++ {
		v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
		if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
			continue
		}
		brow := b[p*n+j0 : p*n+j1]
		for j, bv := range brow {
			o0[j] += v0 * bv
			o1[j] += v1 * bv
			o2[j] += v2 * bv
			o3[j] += v3 * bv
		}
	}
}

// addRow1 accumulates row i of a @ b into columns [j0, j1) of dst, skipping
// a step p when a[i, p] is ±0.
func addRow1(dst, a, b []float32, i, k, n, j0, j1 int) {
	if j0 == j1 {
		return
	}
	arow := a[i*k : (i+1)*k]
	orow := dst[i*n+j0 : i*n+j1]
	for p := 0; p < k; p++ {
		av := arow[p]
		if av == 0 {
			continue
		}
		brow := b[p*n+j0 : p*n+j1]
		for j, bv := range brow {
			orow[j] += av * bv
		}
	}
}
