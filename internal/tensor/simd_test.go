package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fillSpecial fills data for the SIMD-vs-Go kernel comparison: ordinary
// values, ±0 and denormals, plus, when special is set, magnitudes whose
// products overflow to ±Inf and NaNs with random payloads, so a kernel that
// reorders operands or roundings shows up in the bits. Without special the
// outputs stay finite and every rounding is visible.
func fillSpecial(rng *rand.Rand, data []float32, special bool) {
	kinds := 3
	if special {
		kinds = 16
	}
	for i := range data {
		switch rng.Intn(kinds) {
		case 0:
			data[i] = 0
		case 1:
			data[i] = float32(math.Copysign(0, -1))
		case 2:
			data[i] = float32(rng.NormFloat64()) * 1e-40 // denormal
		case 3:
			data[i] = float32(rng.NormFloat64()) * 1e30 // products overflow
		case 4:
			if rng.Intn(8) == 0 {
				data[i] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<22)))
			} else {
				data[i] = float32(rng.NormFloat64())
			}
		default:
			data[i] = float32(rng.NormFloat64())
		}
	}
}

// zeroColumns zeroes random k-columns of a: in every row (so a 4-row block
// skips the step) or in a single row (so only a 1-row step skips, and a
// 4-row block must still add that row's ±0 products).
func zeroColumns(rng *rand.Rand, a []float32, m, k int) {
	for p := 0; p < k; p++ {
		switch rng.Intn(6) {
		case 0:
			for i := 0; i < m; i++ {
				a[i*k+p] = float32(math.Copysign(0, float64(rng.Intn(2)-1)))
			}
		case 1:
			a[rng.Intn(m)*k+p] = 0
		}
	}
}

// TestMatMulSIMDMatchesGo pins the AVX2 f32 kernels to the pure-Go loops bit
// for bit, over random shapes and column tiles, with and without a bias.
func TestMatMulSIMDMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("host has no AVX2 with OS-enabled YMM state; only the pure-Go kernel runs here")
	}
	rng := rand.New(rand.NewSource(12))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		m := 1 + rng.Intn(13)
		k := rng.Intn(71)
		if rng.Intn(16) == 0 {
			k = 512
		}
		n := 1 + rng.Intn(150)
		if rng.Intn(16) == 0 {
			n = 1024
		}
		j0 := rng.Intn(n)
		j1 := j0 + 1 + rng.Intn(n-j0)
		if rng.Intn(4) == 0 {
			j0, j1 = 0, n
		}
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		special := rng.Intn(2) == 0
		fillSpecial(rng, a, special)
		fillSpecial(rng, b, special)
		zeroColumns(rng, a, m, k)
		var bias []float32
		if rng.Intn(2) == 0 {
			bias = make([]float32, n)
			fillSpecial(rng, bias, special)
		}
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		matMulTileWith(false, want, a, b, bias, m, k, n, j0, j1)
		matMulTileWith(true, got, a, b, bias, m, k, n, j0, j1)
		for idx := range want {
			if math.Float32bits(got[idx]) != math.Float32bits(want[idx]) {
				t.Fatalf("trial %d m=%d k=%d n=%d tile [%d,%d) bias=%v: elem (%d,%d) simd %#x, go %#x",
					trial, m, k, n, j0, j1, bias != nil, idx/n, idx%n,
					math.Float32bits(got[idx]), math.Float32bits(want[idx]))
			}
		}
	}
}
