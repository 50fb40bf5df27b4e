package tensor

import "testing"

// Benchmarks for the math substrate: the live server's throughput is bound
// by MatMul, so its cost per cell step matters. These mirror the shapes an
// LSTM step at hidden 1024 uses (the paper's configuration).

func benchMatMul(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	x := RandUniform(rng, 1, m, k)
	w := RandUniform(rng, 1, k, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTensorSink = MatMul(x, w)
	}
	reportGMACs(b, m, k, n)
}

// reportGMACs adds the kernel's multiply-accumulate rate to the output.
func reportGMACs(b *testing.B, m, k, n int) {
	b.ReportMetric(float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

var benchTensorSink *Tensor

// BenchmarkMatMulLSTMStep1 is one LSTM gate matmul at batch 1, h=256.
func BenchmarkMatMulLSTMStep1(b *testing.B) { benchMatMul(b, 1, 512, 1024) }

// BenchmarkMatMulLSTMStep4 is the same matmul at batch 4, one full 4-row
// register block.
func BenchmarkMatMulLSTMStep4(b *testing.B) { benchMatMul(b, 4, 512, 1024) }

// BenchmarkMatMulLSTMStep16 is the same matmul at batch 16.
func BenchmarkMatMulLSTMStep16(b *testing.B) { benchMatMul(b, 16, 512, 1024) }

// BenchmarkMatMulLSTMStep64 is the same matmul at batch 64.
func BenchmarkMatMulLSTMStep64(b *testing.B) { benchMatMul(b, 64, 512, 1024) }

// BenchmarkMatMulInt8LSTMStep1 is the batch-1 gate matmul of
// BenchmarkMatMulLSTMStep1 on the int8 tier, activations quantized once
// outside the loop so the rate is the kernel's own.
func BenchmarkMatMulInt8LSTMStep1(b *testing.B) {
	const m, k, n = 1, 512, 1024
	rng := NewRNG(1)
	a := NewInt8(m, k, false)
	QuantizeWithScaleInto(a, RandUniform(rng, 1, m, k), 1.0/127)
	w := QuantizeWeights(RandUniform(rng, 1, k, n))
	dst := New(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInt8Into(dst, a, w, nil, EpilogueNone)
	}
	reportGMACs(b, m, k, n)
}

// BenchmarkSigmoid1024 covers the element-wise activation path.
func BenchmarkSigmoid1024(b *testing.B) {
	x := RandUniform(NewRNG(1), 1, 16, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTensorSink = Sigmoid(x)
	}
}

// BenchmarkGatherRows covers the batched-input assembly (gather) path.
func BenchmarkGatherRows(b *testing.B) {
	table := RandUniform(NewRNG(1), 1, 4096, 1024)
	idx := make([]int, 64)
	for i := range idx {
		idx[i] = (i * 37) % 4096
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTensorSink = GatherRows(table, idx)
	}
}

// BenchmarkConcatRows64 covers assembling a 64-row batch from scattered
// single-row tensors, the per-task gather of the live server.
func BenchmarkConcatRows64(b *testing.B) {
	rng := NewRNG(1)
	rows := make([]*Tensor, 64)
	for i := range rows {
		rows[i] = RandUniform(rng, 1, 1, 1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTensorSink = ConcatRows(rows...)
	}
}
