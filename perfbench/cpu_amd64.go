package main

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// haveAvx2Fma repeats the blas package's dispatch test, which it does not
// export: AVX, AVX2 and FMA present and YMM state enabled by the OS.
func haveAvx2Fma() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
