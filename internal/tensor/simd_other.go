//go:build !amd64

package tensor

// Without the amd64 kernels every matmul takes the pure-Go loops; the stubs
// below only satisfy the compiler and are never reached.
const haveAVX2 = false

func sgemm4x16(o, a, b *float32, k, lda, ldb, ldo int) { panic("tensor: no SIMD kernels") }

func sgemm1x32(o, a, b *float32, k, ldb int) { panic("tensor: no SIMD kernels") }

func dotInt8x4(a, w *int8, k, ldw, n int, out *int32) { panic("tensor: no SIMD kernels") }
