package tensor

// haveAVX2 selects the AVX2 kernels in simd_amd64.s. It is decided once:
// the CPU must report AVX2 and the OS must save the YMM registers across
// context switches (OSXSAVE set and XCR0 enabling SSE and AVX state).
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		ymmOS   = 0x6     // XCR0 bits 1 (SSE state) and 2 (AVX state)
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&ymmOS != ymmOS {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

//go:noescape
func sgemm4x16(o, a, b *float32, k, lda, ldb, ldo int)

//go:noescape
func sgemm1x32(o, a, b *float32, k, ldb int)

//go:noescape
func dotInt8x4(a, w *int8, k, ldw, n int, out *int32)
