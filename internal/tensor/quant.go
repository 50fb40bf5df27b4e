package tensor

import "math"

// Quantized execution tier (DESIGN.md §14).
//
// Int8Tensor stores a symmetric int8 quantization of a float32 tensor:
// code = clamp(round(x/scale), -127..127), x̂ = code·scale. Scales are
// either per-tensor (one scale) or per-row (one scale per row; for weight
// tensors, which are stored transposed, "per-row" means per output
// channel). The code range is symmetric — -128 is never produced — so the
// zero-point is exactly 0 and matmul needs no zero-point bookkeeping
// beyond the fixed +128 packing offset described below.
//
// Besides the plain codes, which the AVX2 kernel reads, the tensor keeps a
// packed SWAR form that the pure-Go fallback kernel consumes directly (on
// AVX2 hosts only for the columns past a multiple of four, or k < 16).
// Each code is offset to unsigned u = code+128 ∈ [1,255] and three
// consecutive u values share one uint64 in 21-bit lanes. A left operand packs lanes ascending
// (u0 | u1<<21 | u2<<42); a right (weight) operand packs the same three
// columns descending (u2 | u1<<21 | u0<<42). Then a single 64-bit
// multiply computes three exact MACs at once:
//
//	(A*B >> 42) & 0x1FFFFF == u0·v0 + u1·v1 + u2·v2
//
// because each product is < 2^21 (3·255·255 < 2^21) and the only
// cross-term above the middle lanes lands in bit 63, which the mask
// drops. The signed dot product is recovered from the unsigned one with
// the per-row sums kept alongside the codes:
//
//	Σ a·b = Σ(a+128)(b+128) − 128·Σ(a+128) − 128·Σ(b+128) + 128²·k
//
// Zero-padding lanes (u = 0) contribute nothing to either the packed
// products or the sums, so ragged k needs no special casing. Without SIMD
// this triples int8 MAC throughput per multiply and is what makes the
// int8 tier faster than the pure-Go float32 kernel rather than slower.
const (
	laneBits     = 21
	lanesPerWord = 3
	laneMask     = 1<<laneBits - 1
	packOffset   = 128
)

// packedCols returns the number of uint64 words per packed row of k codes.
func packedCols(k int) int { return (k + lanesPerWord - 1) / lanesPerWord }

// Int8Tensor is a symmetric int8 quantization of a row-major [rows, cols]
// float32 tensor, carrying its scale metadata, per-row code sums, and the
// packed SWAR form consumed by MatMulInt8Into. Weight-form tensors
// (constructed by QuantizeWeights) are stored transposed with descending
// lane order so they can be the right operand of the matmul.
type Int8Tensor struct {
	rows, cols int
	data       []int8    // codes, row-major
	scales     []float32 // len 1 (per-tensor) or rows (per-row)
	perRow     bool
	sums       []int32  // per-row Σ(code+128) over real (unpadded) elements
	packed     []uint64 // [rows, packedCols(cols)] SWAR lanes
	pcols      int
	weight     bool // descending lane order: right operand of MatMulInt8Into
}

// NewInt8 returns an activation-form (left operand) int8 tensor with
// undefined contents; fill it with QuantizeInto or QuantizeWithScaleInto.
func NewInt8(rows, cols int, perRow bool) *Int8Tensor {
	if rows < 0 || cols < 0 {
		panic("tensor: NewInt8 with negative dimension")
	}
	ns := 1
	if perRow {
		ns = rows
	}
	pc := packedCols(cols)
	return &Int8Tensor{
		rows: rows, cols: cols,
		data:   make([]int8, rows*cols),
		scales: make([]float32, ns),
		perRow: perRow,
		sums:   make([]int32, rows),
		packed: make([]uint64, rows*pc),
		pcols:  pc,
	}
}

// Rows returns the row count (for weight form: output channels).
func (q *Int8Tensor) Rows() int { return q.rows }

// Cols returns the column count (for weight form: the reduction dim k).
func (q *Int8Tensor) Cols() int { return q.cols }

// PerRow reports whether the tensor carries one scale per row.
func (q *Int8Tensor) PerRow() bool { return q.perRow }

// IsWeight reports whether the tensor is weight-form (transposed,
// descending lane order — the right operand of MatMulInt8Into).
func (q *Int8Tensor) IsWeight() bool { return q.weight }

// Scale returns the quantization scale of row i (the single tensor scale
// when per-tensor).
func (q *Int8Tensor) Scale(i int) float32 {
	if q.perRow {
		return q.scales[i]
	}
	return q.scales[0]
}

// Data returns the raw int8 codes, row-major. The slice must not be
// resized; modifying codes without repacking desynchronizes the tensor.
func (q *Int8Tensor) Data() []int8 { return q.data }

// quantCode converts one float32 to a saturating symmetric int8 code.
// inv is 1/scale (0 when the scale is 0, mapping everything to code 0).
// NaN maps to 0; ±Inf and out-of-range values saturate at ±127. Denormal
// scales make inv overflow to +Inf, which likewise saturates instead of
// producing garbage codes.
func quantCode(v, inv float32) int32 {
	f := float64(v) * float64(inv)
	switch {
	case f != f: // NaN
		return 0
	case f >= 127:
		return 127
	case f <= -127:
		return -127
	}
	// math.Round(f) without its branches: f is the exact product of two
	// float32s, so it has at most 48 significant bits, and adding ±0.5
	// cannot round the sum across an integer; the conversion truncates.
	return int32(f + math.Copysign(0.5, f))
}

// quantRow quantizes one row of src into row i of dst with the given
// scale, writing codes, the packed lanes (in dst's lane order), and the
// row sum. len(src) must equal dst.cols.
func quantRow(dst *Int8Tensor, i int, src []float32, scale float32) {
	var inv float32
	if scale > 0 {
		inv = 1 / scale
	}
	row := dst.data[i*dst.cols : (i+1)*dst.cols]
	pr := dst.packed[i*dst.pcols : (i+1)*dst.pcols]
	var sum int32
	var word uint64
	lane := 0
	pi := 0
	for t, v := range src {
		c := quantCode(v, inv)
		row[t] = int8(c)
		u := uint64(c + packOffset)
		sum += c + packOffset
		if dst.weight {
			word |= u << (laneBits * (lanesPerWord - 1 - lane))
		} else {
			word |= u << (laneBits * lane)
		}
		lane++
		if lane == lanesPerWord {
			pr[pi] = word
			pi++
			word = 0
			lane = 0
		}
	}
	if lane != 0 {
		pr[pi] = word
	}
	dst.sums[i] = sum
}

// absMax returns max(|v|) over vals, ignoring NaNs.
func absMax(vals []float32) float32 {
	var m float32
	for _, v := range vals {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// MaxAbs returns max(|v|) over the tensor's elements, ignoring NaNs — the
// absmax statistic calibration passes feed into quantization scales.
func (t *Tensor) MaxAbs() float32 { return absMax(t.data) }

// QuantizeInto quantizes src into dst with dynamic symmetric scales:
// scale = absmax/127 per row (per-row form) or over the whole tensor
// (per-tensor form). An all-zero row (absmax 0) gets scale 0 and exact
// zero codes — the zero-scale guard — so DequantizeInto round-trips it
// to exact zeros. Shapes must match; src must be rank 2.
func QuantizeInto(dst *Int8Tensor, src *Tensor) {
	checkQuantShape(dst, src)
	if dst.perRow {
		for i := 0; i < dst.rows; i++ {
			row := src.data[i*dst.cols : (i+1)*dst.cols]
			s := absMax(row) / 127
			dst.scales[i] = s
			quantRow(dst, i, row, s)
		}
		return
	}
	s := absMax(src.data) / 127
	dst.scales[0] = s
	for i := 0; i < dst.rows; i++ {
		quantRow(dst, i, src.data[i*dst.cols:(i+1)*dst.cols], s)
	}
}

// QuantizeWithScaleInto quantizes src into dst with a fixed (calibrated)
// per-tensor scale, saturating values beyond ±127·scale. This is the hot
// path of the int8 tier: a static scale avoids the absmax pass and keeps
// batch results independent of co-batched rows. scale 0 quantizes
// everything to code 0 (the zero-scale guard); negative scales panic.
func QuantizeWithScaleInto(dst *Int8Tensor, src *Tensor, scale float32) {
	checkQuantShape(dst, src)
	if dst.perRow {
		panic("tensor: QuantizeWithScaleInto requires a per-tensor Int8Tensor")
	}
	if scale < 0 || scale != scale {
		panic("tensor: QuantizeWithScaleInto with negative or NaN scale")
	}
	dst.scales[0] = scale
	for i := 0; i < dst.rows; i++ {
		quantRow(dst, i, src.data[i*dst.cols:(i+1)*dst.cols], scale)
	}
}

// DequantizeInto reconstructs x̂ = code·scale into dst, in the Int8Tensor's
// own layout (weight form dequantizes to the transposed [n, k] layout it
// stores). dst must be [rows, cols].
func DequantizeInto(dst *Tensor, src *Int8Tensor) {
	checkQuantShape(src, dst)
	for i := 0; i < src.rows; i++ {
		s := src.Scale(i)
		d := dst.data[i*src.cols : (i+1)*src.cols]
		row := src.data[i*src.cols : (i+1)*src.cols]
		for t, c := range row {
			d[t] = float32(c) * s
		}
	}
}

func checkQuantShape(q *Int8Tensor, t *Tensor) {
	if t.Rank() != 2 || t.Dim(0) != q.rows || t.Dim(1) != q.cols {
		panic("tensor: quantize/dequantize shape mismatch")
	}
}

// QuantizeWeights quantizes a [k, n] float32 weight matrix into weight
// form: a transposed [n, k] Int8Tensor with one scale per output channel
// (per column of w) and descending lane packing, ready to be the right
// operand of MatMulInt8Into. Weights are quantized once at cell
// construction, so this allocates normally rather than using an arena.
func QuantizeWeights(w *Tensor) *Int8Tensor {
	if w.Rank() != 2 {
		panic("tensor: QuantizeWeights requires a rank-2 tensor")
	}
	k, n := w.Dim(0), w.Dim(1)
	q := NewInt8(n, k, true)
	q.weight = true
	col := make([]float32, k)
	for j := 0; j < n; j++ {
		for t := 0; t < k; t++ {
			col[t] = w.data[t*n+j]
		}
		s := absMax(col) / 127
		q.scales[j] = s
		quantRow(q, j, col, s)
	}
	return q
}

// Epilogue selects the fused post-matmul activation of MatMulInt8Into.
type Epilogue int

// Epilogues. Sigmoid and tanh use the fast float32 approximations below —
// part of the raw-speed tier's contract; the float32 path never uses them.
const (
	EpilogueNone Epilogue = iota
	EpilogueSigmoid
	EpilogueTanh
)

// MatMulInt8Into computes dst = epilogue(dequant(a × wᵀ) + bias) where a
// is an activation-form [m, k] Int8Tensor, w is a weight-form [n, k]
// Int8Tensor (from QuantizeWeights), bias is [n] or nil, and dst is
// [m, n] float32. The int8×int8→int32 dot products are exact: the AVX2
// kernel where the host has it, the SWAR lanes (see the package comment
// above) otherwise; requantization to float32, bias add and the activation
// are fused into the output write. Both kernels run one activation row
// against four weight rows at a time, so one activation load serves four
// dot products. The kernel fully overwrites dst, so it is arena-safe.
func MatMulInt8Into(dst *Tensor, a, w *Int8Tensor, bias *Tensor, ep Epilogue) {
	matMulInt8(haveAVX2, dst, a, w, bias, ep)
}

// matMulInt8 is MatMulInt8Into with the dot-product kernel explicit: simd
// selects dotInt8x4, otherwise the SWAR loop runs. Both produce the same
// int32 sums, so the outputs are identical.
func matMulInt8(simd bool, dst *Tensor, a, w *Int8Tensor, bias *Tensor, ep Epilogue) {
	if a.weight {
		panic("tensor: MatMulInt8Into left operand must be activation-form")
	}
	if !w.weight {
		panic("tensor: MatMulInt8Into right operand must be weight-form (QuantizeWeights)")
	}
	m, k, n := a.rows, a.cols, w.rows
	if w.cols != k {
		panic("tensor: MatMulInt8Into inner dimension mismatch")
	}
	checkDst(dst, "MatMulInt8Into", m, n)
	if bias != nil && (bias.Rank() != 1 || bias.Dim(0) != n) {
		panic("tensor: MatMulInt8Into bias must be rank-1 of length n")
	}
	// dots holds the exact int32 sums of one chunk of an output row; the
	// requantize, bias and epilogue below are the same for both kernels.
	var dots [64]int32
	for i := 0; i < m; i++ {
		f := a.Scale(i)
		for j0 := 0; j0 < n; j0 += len(dots) {
			d := dots[:min(len(dots), n-j0)]
			c := 0
			if simd && k >= 16 {
				c = dotsInt8SIMD(d, a, w, i, j0)
			}
			dotsInt8SWAR(d[c:], a, w, i, j0+c)
			o := dst.data[i*n+j0 : i*n+j0+len(d)]
			ws := w.scales[j0 : j0+len(d)]
			for c, dot := range d {
				o[c] = float32(dot) * f * ws[c]
			}
			if bias != nil {
				for c, b := range bias.data[j0 : j0+len(d)] {
					o[c] += b
				}
			}
			switch ep {
			case EpilogueSigmoid:
				for c, v := range o {
					o[c] = FastSigmoid(v)
				}
			case EpilogueTanh:
				for c, v := range o {
					o[c] = FastTanh(v)
				}
			}
		}
	}
}

// dotsInt8SIMD sets dots[c] to the exact dot product of activation row i
// with weight row j+c for the leading multiple of four columns, and
// returns how many it set: dotInt8x4 over the leading multiple of 16 codes,
// scalar code products over the rest. k must be at least 16.
func dotsInt8SIMD(dots []int32, a, w *Int8Tensor, i, j int) int {
	cols := len(dots) &^ 3
	if cols == 0 {
		return 0
	}
	k := a.cols
	ar := a.data[i*k : (i+1)*k]
	wr := w.data[j*k : (j+cols)*k]
	k16 := k &^ 15
	dotInt8x4(&ar[0], &wr[0], k16, k, cols, &dots[0])
	if k16 < k {
		for c := range dots[:cols] {
			for t := k16; t < k; t++ {
				dots[c] += int32(ar[t]) * int32(wr[c*k+t])
			}
		}
	}
	return cols
}

// dotsInt8SWAR sets dots[c] to the exact dot product of activation row i
// with weight row j+c from the packed 21-bit lanes, four weight rows per
// pass over the activation. corr folds the +128 packing offset back out:
// Σa·b = Σ(a+128)(b+128) − 128·Σ(a+128) − 128·Σ(b+128) + 128²·k.
func dotsInt8SWAR(dots []int32, a, w *Int8Tensor, i, j int) {
	kp := a.pcols
	ar := a.packed[i*kp : (i+1)*kp]
	corr := int32(packOffset*packOffset*a.cols) - packOffset*a.sums[i]
	c := 0
	for ; c+4 <= len(dots); c += 4 {
		jc := j + c
		w0 := w.packed[(jc+0)*kp : (jc+1)*kp]
		w1 := w.packed[(jc+1)*kp : (jc+2)*kp]
		w2 := w.packed[(jc+2)*kp : (jc+3)*kp]
		w3 := w.packed[(jc+3)*kp : (jc+4)*kp]
		var c0, c1, c2, c3 uint64
		for t, av := range ar {
			c0 += (av * w0[t] >> (2 * laneBits)) & laneMask
			c1 += (av * w1[t] >> (2 * laneBits)) & laneMask
			c2 += (av * w2[t] >> (2 * laneBits)) & laneMask
			c3 += (av * w3[t] >> (2 * laneBits)) & laneMask
		}
		dots[c+0] = int32(c0) + corr - packOffset*w.sums[jc+0]
		dots[c+1] = int32(c1) + corr - packOffset*w.sums[jc+1]
		dots[c+2] = int32(c2) + corr - packOffset*w.sums[jc+2]
		dots[c+3] = int32(c3) + corr - packOffset*w.sums[jc+3]
	}
	for ; c < len(dots); c++ {
		wr := w.packed[(j+c)*kp : (j+c+1)*kp]
		var acc uint64
		for t, av := range ar {
			acc += (av * wr[t] >> (2 * laneBits)) & laneMask
		}
		dots[c] = int32(acc) + corr - packOffset*w.sums[j+c]
	}
}

// fastTanhBound is the clamp beyond which FastTanh saturates; tanh(x) for
// |x| ≥ 7.9 is 1 to within float32 resolution.
const fastTanhBound = 7.90531110763549805

// FastTanh is a float32 rational approximation of tanh (the classic
// 13/6-degree minimax pair used by Eigen and cephes), accurate to a few
// float32 ULPs on the clamp range. It exists for the int8 tier's fused
// epilogues and gate sweeps, replacing the float64 math.Exp path; the
// float32 tier keeps the exact libm activations so its outputs stay
// bit-stable for conformance oracles.
func FastTanh(x float32) float32 {
	if x != x {
		return x
	}
	if x > fastTanhBound {
		return 1
	}
	if x < -fastTanhBound {
		return -1
	}
	x2 := x * x
	p := x2*-2.76076847742355e-16 + 2.00018790482477e-13
	p = x2*p - 8.60467152213735e-11
	p = x2*p + 5.12229709037114e-08
	p = x2*p + 1.48572235717979e-05
	p = x2*p + 6.37261928875436e-04
	p = x2*p + 4.89352455891786e-03
	p *= x
	q := x2*1.19825839466702e-06 + 1.18534705686654e-04
	q = x2*q + 2.26843463243900e-03
	q = x2*q + 4.89352518554385e-03
	return p / q
}

// FastSigmoid computes σ(x) = ½ + ½·tanh(x/2) via FastTanh; int8-tier
// only, same contract as FastTanh.
func FastSigmoid(x float32) float32 {
	return 0.5 + 0.5*FastTanh(0.5*x)
}
