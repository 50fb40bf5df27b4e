package tensor

import (
	"math"
	"testing"
)

// refInt8MatMul computes the expected MatMulInt8Into output from the raw
// codes with the kernel's exact float op order, so the comparison is
// bit-exact: the SWAR lanes must reproduce the plain int32 dot product.
func refInt8MatMul(a, w *Int8Tensor, bias *Tensor, ep Epilogue) *Tensor {
	m, k, n := a.Rows(), a.Cols(), w.Rows()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var dot int32
			for t := 0; t < k; t++ {
				dot += int32(a.Data()[i*k+t]) * int32(w.Data()[j*k+t])
			}
			v := float32(dot) * a.Scale(i) * w.Scale(j)
			if bias != nil {
				v += bias.Data()[j]
			}
			switch ep {
			case EpilogueSigmoid:
				v = FastSigmoid(v)
			case EpilogueTanh:
				v = FastTanh(v)
			}
			out.Data()[i*n+j] = v
		}
	}
	return out
}

// TestMatMulInt8MatchesInt32Reference checks both int8 kernels, SWAR and
// AVX2, against a plain int32 reference, including k not a multiple of 16,
// n not a multiple of 4, and fully saturated ±127 codes.
func TestMatMulInt8MatchesInt32Reference(t *testing.T) {
	kernels := []bool{false}
	if haveAVX2 {
		kernels = append(kernels, true)
	} else {
		t.Log("host has no AVX2 with OS-enabled YMM state; checking the SWAR kernel only")
	}
	rng := NewRNG(7)
	for _, tc := range []struct {
		m, k, n   int
		saturated bool
	}{
		{1, 1, 1, false}, {3, 5, 7, false}, {4, 128, 256, false}, {8, 130, 64, false}, {5, 2, 3, false},
		{1, 16, 4, false}, {2, 33, 9, false}, {3, 47, 13, false}, {1, 512, 1024, false},
		{3, 40, 11, true}, {2, 512, 8, true},
	} {
		src := RandNormal(rng, 1, tc.m, tc.k)
		wf := RandNormal(rng, 1, tc.k, tc.n)
		bias := RandNormal(rng, 1, tc.n)
		a := NewInt8(tc.m, tc.k, !tc.saturated)
		if tc.saturated {
			// Every activation saturates at ±127 and every weight column
			// is ±1, so every weight code is ±127 too.
			QuantizeWithScaleInto(a, src, 1e-6)
			for p, v := range wf.Data() {
				wf.Data()[p] = float32(math.Copysign(1, float64(v)))
			}
		} else {
			QuantizeInto(a, src)
		}
		w := QuantizeWeights(wf)
		for _, simd := range kernels {
			for _, ep := range []Epilogue{EpilogueNone, EpilogueSigmoid, EpilogueTanh} {
				dst := New(tc.m, tc.n)
				matMulInt8(simd, dst, a, w, bias, ep)
				want := refInt8MatMul(a, w, bias, ep)
				for p, v := range dst.Data() {
					if v != want.Data()[p] {
						t.Fatalf("simd=%v m=%d k=%d n=%d ep=%d: elem %d = %v, want %v",
							simd, tc.m, tc.k, tc.n, ep, p, v, want.Data()[p])
					}
				}
			}
			// nil bias path
			dst := New(tc.m, tc.n)
			matMulInt8(simd, dst, a, w, nil, EpilogueNone)
			want := refInt8MatMul(a, w, nil, EpilogueNone)
			for p, v := range dst.Data() {
				if v != want.Data()[p] {
					t.Fatalf("simd=%v nil-bias m=%d k=%d n=%d: elem %d = %v, want %v",
						simd, tc.m, tc.k, tc.n, p, v, want.Data()[p])
				}
			}
		}
	}
}

// TestMatMulInt8ApproximatesFloat pins the end-to-end quantization error
// of a full matmul against the float32 kernel at the LSTM gate shape.
func TestMatMulInt8ApproximatesFloat(t *testing.T) {
	rng := NewRNG(11)
	m, k, n := 8, 128, 256
	src := RandNormal(rng, 1, m, k)
	wf := RandNormal(rng, 0.1, k, n)
	bias := RandNormal(rng, 0.1, n)
	want := MatMulAddBias(src, wf, bias)
	a := NewInt8(m, k, true)
	QuantizeInto(a, src)
	w := QuantizeWeights(wf)
	got := New(m, n)
	MatMulInt8Into(got, a, w, bias, EpilogueNone)
	var worst float64
	for p := range got.Data() {
		d := math.Abs(float64(got.Data()[p] - want.Data()[p]))
		if d > worst {
			worst = d
		}
	}
	// Error budget: ~sqrt(k)·(εa·rms(w) + εw·rms(a)) ≈ 0.03 at this shape.
	if worst > 0.1 {
		t.Fatalf("int8 matmul max abs error %v vs float32, want ≤ 0.1", worst)
	}
}

func TestQuantizeSaturation(t *testing.T) {
	// A fixed scale of 1.0 means any |x| > 127 must clamp to ±127, and
	// ±Inf must saturate rather than wrap or panic.
	src := FromSlice([]float32{126.4, 127.5, 1e6, float32(math.Inf(1)), -126.4, -127.5, -1e6, float32(math.Inf(-1))}, 2, 4)
	q := NewInt8(2, 4, false)
	QuantizeWithScaleInto(q, src, 1)
	want := []int8{126, 127, 127, 127, -126, -127, -127, -127}
	for i, c := range q.Data() {
		if c != want[i] {
			t.Fatalf("code[%d] = %d, want %d", i, c, want[i])
		}
	}
	// Dynamic per-row quantization never exceeds ±127 either.
	rng := NewRNG(3)
	big := Scale(RandNormal(rng, 1, 4, 33), 1e30)
	qd := NewInt8(4, 33, true)
	QuantizeInto(qd, big)
	for i, c := range qd.Data() {
		if c > 127 || c < -127 {
			t.Fatalf("dynamic code[%d] = %d outside ±127", i, c)
		}
	}
}

func TestQuantizeZeroScaleGuard(t *testing.T) {
	// All-zero input: absmax 0 → scale 0 → codes 0 → dequantizes to exact
	// zeros, and a matmul against it yields exactly the bias.
	src := New(3, 8)
	q := NewInt8(3, 8, true)
	QuantizeInto(q, src)
	for i := 0; i < 3; i++ {
		if s := q.Scale(i); s != 0 {
			t.Fatalf("scale[%d] = %v, want 0", i, s)
		}
	}
	back := New(3, 8)
	DequantizeInto(back, q)
	for p, v := range back.Data() {
		if v != 0 {
			t.Fatalf("dequant elem %d = %v, want exact 0", p, v)
		}
	}
	w := QuantizeWeights(New(8, 4)) // zero weights: per-column scales 0
	bias := FromSlice([]float32{1, 2, 3, 4}, 4)
	dst := New(3, 4)
	MatMulInt8Into(dst, q, w, bias, EpilogueNone)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if dst.At(i, j) != bias.Data()[j] {
				t.Fatalf("zero-scale matmul [%d,%d] = %v, want bias %v", i, j, dst.At(i, j), bias.Data()[j])
			}
		}
	}
}

func TestQuantizeDenormalInputs(t *testing.T) {
	// Denormal magnitudes: absmax/127 can underflow so 1/scale overflows
	// to +Inf; codes must still saturate sanely, never wrap or panic.
	denorm := float32(math.Float32frombits(1)) // smallest positive denormal
	src := FromSlice([]float32{denorm, -denorm, 0, denorm * 100}, 1, 4)
	q := NewInt8(1, 4, true)
	QuantizeInto(q, src)
	for i, c := range q.Data() {
		if c > 127 || c < -127 {
			t.Fatalf("denormal code[%d] = %d outside ±127", i, c)
		}
	}
	back := New(1, 4)
	DequantizeInto(back, q)
	for p, v := range back.Data() {
		if v != v {
			t.Fatalf("denormal dequant elem %d is NaN", p)
		}
	}
	// NaN input maps to code 0.
	nan := FromSlice([]float32{float32(math.NaN()), 1, -1, 0.5}, 1, 4)
	qn := NewInt8(1, 4, true)
	QuantizeInto(qn, nan)
	if qn.Data()[0] != 0 {
		t.Fatalf("NaN quantized to %d, want 0", qn.Data()[0])
	}
}

// FuzzQuantRoundTrip asserts |x − Dequantize(Quantize(x))| ≤ 1 ULP of the
// quantization scale (one code step) for in-range values, and exact
// clamping to ±127·scale beyond the range.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(float32(0), float32(1))
	f.Add(float32(1.5), float32(0.01))
	f.Add(float32(-200), float32(1))
	f.Add(float32(1e-40), float32(1e-38))
	f.Add(float32(3.14159), float32(0))
	f.Fuzz(func(t *testing.T, x, scale float32) {
		if scale < 0 || scale != scale || math.IsInf(float64(scale), 0) || x != x || math.IsInf(float64(x), 0) {
			t.Skip()
		}
		src := FromSlice([]float32{x}, 1, 1)
		q := NewInt8(1, 1, false)
		QuantizeWithScaleInto(q, src, scale)
		back := New(1, 1)
		DequantizeInto(back, q)
		got := back.Data()[0]
		lim := float64(scale) * 127
		xf := float64(x)
		if scale == 0 {
			if got != 0 {
				t.Fatalf("zero scale: round-trip(%v) = %v, want 0", x, got)
			}
			return
		}
		if math.Abs(xf) > lim {
			// Out of range: must clamp to the scale's representable edge.
			want := math.Copysign(lim, xf)
			if math.Abs(float64(got)-want) > 1e-6*math.Abs(want) {
				t.Fatalf("clamp: round-trip(%v) = %v, want ±%v", x, got, lim)
			}
			return
		}
		// In range: error ≤ 1 ULP of scale (one quantization step), with a
		// hair of float slack for the rounding at the step boundary.
		if err := math.Abs(float64(got) - xf); err > float64(scale)*(1+1e-6) {
			t.Fatalf("round-trip(%v) scale %v: error %v > scale", x, scale, err)
		}
	})
}

func TestArenaGetInt8ZeroAlloc(t *testing.T) {
	a := NewArena(0)
	rng := NewRNG(5)
	src := RandNormal(rng, 1, 8, 96)
	warm := func() {
		a.Reset()
		q := a.GetInt8(8, 96, true)
		QuantizeInto(q, src)
		p := a.GetInt8(8, 96, false)
		QuantizeWithScaleInto(p, src, 0.05)
	}
	warm()
	warm()
	if n := testing.AllocsPerRun(50, warm); n != 0 {
		t.Fatalf("Arena.GetInt8 cycle allocates %v times per run, want 0", n)
	}
	// nil arena falls back to heap allocation but must still work.
	q := (*Arena)(nil).GetInt8(2, 3, true)
	QuantizeInto(q, New(2, 3))
	if q.Rows() != 2 || q.Cols() != 3 {
		t.Fatalf("nil-arena GetInt8 shape [%d %d]", q.Rows(), q.Cols())
	}
}

func TestFastActivationsAccuracy(t *testing.T) {
	for x := -12.0; x <= 12.0; x += 0.0625 {
		wantT := math.Tanh(x)
		if err := math.Abs(float64(FastTanh(float32(x))) - wantT); err > 2e-6 {
			t.Fatalf("FastTanh(%v) error %v", x, err)
		}
		wantS := 1 / (1 + math.Exp(-x))
		if err := math.Abs(float64(FastSigmoid(float32(x))) - wantS); err > 2e-6 {
			t.Fatalf("FastSigmoid(%v) error %v", x, err)
		}
	}
	if FastTanh(float32(math.NaN())) == FastTanh(float32(math.NaN())) {
		t.Fatal("FastTanh(NaN) must stay NaN")
	}
	if FastTanh(100) != 1 || FastTanh(-100) != -1 {
		t.Fatal("FastTanh must saturate at ±1")
	}
}

// BenchmarkMatMulF32Gate / BenchmarkMatMulInt8Gate are the paired kernel
// benchmarks at the Hidden=64 LSTM gate shape (m=8, k=in+h=128, n=4h=256);
// the int8 one includes the per-step activation quantize+pack, since the
// hot path pays it every step.
func BenchmarkMatMulF32Gate(b *testing.B) {
	rng := NewRNG(1)
	src := RandNormal(rng, 1, 8, 128)
	w := RandNormal(rng, 1, 128, 256)
	bias := RandNormal(rng, 0.1, 256)
	dst := New(8, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulAddBiasInto(dst, src, w, bias)
	}
}

func BenchmarkMatMulInt8Gate(b *testing.B) {
	rng := NewRNG(1)
	src := RandNormal(rng, 1, 8, 128)
	wq := QuantizeWeights(RandNormal(rng, 1, 128, 256))
	bias := RandNormal(rng, 0.1, 256)
	a := NewInt8(8, 128, false)
	dst := New(8, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeWithScaleInto(a, src, 0.05)
		MatMulInt8Into(dst, a, wq, bias, EpilogueNone)
	}
}

// TestQuantCodeMatchesRound pins quantCode's branch-free rounding to
// math.Round (half away from zero) on random products, exact ties and their
// float32 neighbours, saturation, NaN and ±Inf.
func TestQuantCodeMatchesRound(t *testing.T) {
	ref := func(v, inv float32) int32 {
		f := float64(v) * float64(inv)
		switch {
		case f != f:
			return 0
		case f >= 127:
			return 127
		case f <= -127:
			return -127
		}
		return int32(math.Round(f))
	}
	check := func(v, inv float32) {
		if got, want := quantCode(v, inv), ref(v, inv); got != want {
			t.Fatalf("quantCode(%v, %v) = %d, math.Round gives %d", v, inv, got, want)
		}
	}
	rng := NewRNG(5)
	for i := 0; i < 200000; i++ {
		v := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		inv := float32(math.Pow(2, rng.NormFloat64()*8))
		check(v, inv)
		check(v, 1/inv)
	}
	for k := -128; k <= 128; k++ {
		tie := float32(k) + 0.5
		for _, v := range []float32{tie, math.Nextafter32(tie, 0), math.Nextafter32(tie, 200), math.Nextafter32(tie, -200)} {
			check(v, 1)
			check(v*4, 0.25)
			check(v/1024, 1024)
		}
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, -1e-45} {
		check(v, 1)
		check(v, float32(math.Inf(1)))
		check(v, 0)
	}
}
