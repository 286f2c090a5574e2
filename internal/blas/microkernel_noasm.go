//go:build !amd64

package blas

// Non-amd64 targets have no assembly kernel; the generic Go microkernels
// carry all tile shapes.
const haveAvx2Fma = false

func microKern8x4F64Avx(kb int, ap, bp []float64, alpha float64, c []float64, ldc int) {
	panic("blas: AVX2 microkernel dispatched without assembly support")
}

func axpyF64Avx(alpha float64, x, y []float64) {
	panic("blas: AVX2 axpy dispatched without assembly support")
}

func gerF64Avx(m, n int, x, y []float64, incY int, alpha float64, a []float64, lda int) {
	panic("blas: AVX2 rank-1 update dispatched without assembly support")
}
