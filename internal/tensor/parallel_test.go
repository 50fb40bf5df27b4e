package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fillMatrix populates data with a mix of ordinary values, exact zeros (to
// exercise the kernel's zero-skip), and denormal-scale magnitudes whose
// rounding is order-sensitive — the inputs most likely to betray a kernel
// that reorders float accumulation.
func fillMatrix(rng *rand.Rand, data []float32) {
	for i := range data {
		switch rng.Intn(8) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = float32(math.Copysign(0, -1)) // negative zero
		case 2:
			data[i] = float32(rng.NormFloat64()) * 1e-20
		default:
			data[i] = float32(rng.NormFloat64())
		}
	}
}

// TestParallelMatMulBitIdentical is the conformance-critical property test:
// the column-tiled parallel kernel (SIMD where the host has it) must produce
// byte-for-byte the same output as the serial pure-Go reference for every
// shape, including odd shapes that stress the 4-row blocking remainder and
// tiny column tiles.
func TestParallelMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{1, 3, 4, 5, 64, 65}
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				bias := make([]float32, n)
				fillMatrix(rng, a)
				fillMatrix(rng, b)
				fillMatrix(rng, bias)

				serial := make([]float32, m*n)
				par := make([]float32, m*n)

				// No bias.
				matMulTileWith(false, serial, a, b, nil, m, k, n, 0, n)
				matMulParallel(par, a, b, nil, m, k, n)
				for i := range serial {
					if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
						t.Fatalf("m=%d k=%d n=%d: parallel[%d]=%x serial[%d]=%x",
							m, k, n, i, math.Float32bits(par[i]), i, math.Float32bits(serial[i]))
					}
				}

				// With bias initialization.
				matMulTileWith(false, serial, a, b, bias, m, k, n, 0, n)
				matMulParallel(par, a, b, bias, m, k, n)
				for i := range serial {
					if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
						t.Fatalf("m=%d k=%d n=%d bias: parallel[%d]=%x serial[%d]=%x",
							m, k, n, i, math.Float32bits(par[i]), i, math.Float32bits(serial[i]))
					}
				}
			}
		}
	}
}

// TestParallelMatMulManyTiles forces a wide split so multiple pool workers
// really participate, then checks bit-identity on a large shape.
func TestParallelMatMulManyTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 33, 47, 257
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillMatrix(rng, a)
	fillMatrix(rng, b)
	serial := make([]float32, m*n)
	par := make([]float32, m*n)
	matMulTileWith(false, serial, a, b, nil, m, k, n, 0, n)
	matMulParallel(par, a, b, nil, m, k, n)
	for i := range serial {
		if math.Float32bits(serial[i]) != math.Float32bits(par[i]) {
			t.Fatalf("parallel[%d] != serial[%d]", i, i)
		}
	}
}

// TestMatMulIntoMatchesMatMul pins the Into variant to the allocating API.
func TestMatMulIntoMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(5, 7)
	b := New(7, 9)
	fillMatrix(rng, a.Data())
	fillMatrix(rng, b.Data())
	want := MatMul(a, b)
	got := New(5, 9)
	// Pre-poison dst: MatMulInto must fully overwrite it.
	for i := range got.Data() {
		got.Data()[i] = float32(math.NaN())
	}
	MatMulInto(got, a, b)
	if !got.Equal(want) {
		t.Fatalf("MatMulInto disagrees with MatMul")
	}
}

// TestMatMulAddBiasIntoMatchesSerial pins bias-initialized accumulation:
// the fused variant equals bias-broadcast followed by accumulation in the
// same element order.
func TestMatMulAddBiasIntoMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(6, 4)
	w := New(4, 5)
	bias := New(5)
	fillMatrix(rng, a.Data())
	fillMatrix(rng, w.Data())
	fillMatrix(rng, bias.Data())
	got := MatMulAddBias(a, w, bias)
	want := New(6, 5)
	for i := 0; i < 6; i++ {
		copy(want.Data()[i*5:(i+1)*5], bias.Data())
	}
	matMulAccumulateRef(want.Data(), a.Data(), w.Data(), 6, 4, 5)
	if !got.Equal(want) {
		t.Fatalf("MatMulAddBias = %v, want %v", got.Data(), want.Data())
	}
}

// matMulAccumulateRef is a naive dst += a@b in the kernel's (i, p, j) order.
func matMulAccumulateRef(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				dst[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

func TestFillRows(t *testing.T) {
	dst := New(3, 2)
	rows := []*Tensor{
		FromSlice([]float32{1, 2}, 2),
		FromSlice([]float32{3, 4}, 1, 2),
		FromSlice([]float32{5, 6}, 2),
	}
	FillRows(dst, rows)
	if !dst.Equal(FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)) {
		t.Fatalf("FillRows = %v", dst.Data())
	}
}

func TestFillRowsRejectsLooseFit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillRows with mismatched row count must panic")
		}
	}()
	FillRows(New(3, 2), []*Tensor{FromSlice([]float32{1, 2}, 2)})
}
