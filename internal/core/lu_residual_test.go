package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// luSolveRatio is LAPACK's solve test ratio (xGET02):
// ‖b − A·x‖₁ / (‖A‖₁·‖x‖₁·n·ε), worst over the right-hand sides. LAPACK
// accepts a ratio below 30.
func luSolveRatio(n, nrhs int, a, x, b []float64) float64 {
	r := append([]float64(nil), b...)
	blas.Gemm(blas.NoTrans, blas.NoTrans, n, nrhs, n, -1, a, n, x, n, 1, r, n)
	anorm := lapack.Lange(lapack.OneNorm, n, n, a, n)
	eps := lapack.Epsilon[float64]()
	worst := 0.0
	for j := 0; j < nrhs; j++ {
		rn := blas.Asum(n, r[j*n:], 1)
		xn := blas.Asum(n, x[j*n:], 1)
		worst = max(worst, rn/(anorm*xn*float64(n)*eps))
	}
	return worst
}

// TestTileGesvLAPACKRatio: the tiled incremental-pivoting solve passes
// LAPACK's backward-error test across the condition-number ladder, at the
// working tile sizes, on one and two workers. It guards the inner-blocked
// kernels' explicit-inverse application of the L1 blocks: its rounding
// must stay at the level of a triangular solve.
func TestTileGesvLAPACKRatio(t *testing.T) {
	const n, nrhs = 200, 2 // ragged for both tile sizes
	for _, cond := range []float64{1, 1e4, 1e8, 1e12} {
		rng := rand.New(rand.NewSource(int64(cond) % 1000003))
		aD := matgen.WithCond[float64](rng, n, n, cond)
		xTrue := matgen.Dense[float64](rng, n, nrhs)
		bD := make([]float64, n*nrhs)
		blas.Gemm(blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, aD, n, xTrue, n, 0, bD, n)
		for _, nb := range []int{48, 96} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("cond=%g nb=%d workers=%d", cond, nb, workers)
				a := tile.FromColMajor(n, n, aD, n, nb)
				b := tile.FromColMajor(n, nrhs, bD, n, nb)
				r := sched.New(workers)
				_, err := core.Gesv(r, a, b)
				r.Shutdown()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ratio := luSolveRatio(n, nrhs, aD, b.ToColMajor(), bD); ratio > 30 {
					t.Errorf("%s: LAPACK solve ratio %.3g > 30", name, ratio)
				}
			}
		}
	}
}
