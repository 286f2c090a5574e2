package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// This file checks the inner-blocked incremental-pivoting kernels against
// a test-only copy of the stacked elimination they replaced: copy U and A2
// into one (n+m2)×n stack, run unblocked Getf2 on it, and apply the result
// with Laswp plus a full unit-lower Trsm and a GEMM. The two compute the
// same transform with the arithmetic associated differently, so pivots must
// match exactly and values to rounding.

// refTstrf is the stacked tstrf: it returns the whole stacked unit-lower
// factor (strictly-lower entries) and the stack's pivot vector.
func refTstrf[F blas.Float](n, m2 int, u []F, ldu int, a2 []F, lda2 int) ([]F, []int, error) {
	mw := n + m2
	w := make([]F, mw*n)
	for j := 0; j < n; j++ {
		copy(w[j*mw:j*mw+j+1], u[j*ldu:j*ldu+j+1])
		copy(w[n+j*mw:n+j*mw+m2], a2[j*lda2:j*lda2+m2])
	}
	piv := make([]int, n)
	err := lapack.Getf2(mw, n, w, mw, piv)
	for j := 0; j < n; j++ {
		copy(u[j*ldu:j*ldu+j+1], w[j*mw:j*mw+j+1])
		copy(a2[j*lda2:j*lda2+m2], w[n+j*mw:n+j*mw+m2])
	}
	return w, piv, err
}

// refSsssm applies a refTstrf transform to [C1 (top n rows); C2].
func refSsssm[F blas.Float](n, m2, nc int, stackL []F, piv []int, c1 []F, ldc1 int, c2 []F, ldc2 int) {
	mw := n + m2
	w := make([]F, mw*nc)
	for j := 0; j < nc; j++ {
		copy(w[j*mw:j*mw+n], c1[j*ldc1:j*ldc1+n])
		copy(w[n+j*mw:n+j*mw+m2], c2[j*ldc2:j*ldc2+m2])
	}
	lapack.Laswp(nc, w, mw, 0, n, piv)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, n, nc, 1, stackL, mw, w, mw)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m2, nc, n, -1, stackL[n:], mw, w, mw, 1, w[n:], mw)
	for j := 0; j < nc; j++ {
		copy(c1[j*ldc1:j*ldc1+n], w[j*mw:j*mw+n])
		copy(c2[j*ldc2:j*ldc2+m2], w[n+j*mw:n+j*mw+m2])
	}
}

// refGessm is the diagonal-tile application as a full unit-lower Trsm.
func refGessm[F blas.Float](m, n, kk int, piv []int, l []F, ldl int, c []F, ldc int) {
	lapack.Laswp(n, c, ldc, 0, kk, piv)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, kk, n, 1, l, ldl, c, ldc)
	if m > kk {
		blas.Gemm(blas.NoTrans, blas.NoTrans, m-kk, n, kk, -1, l[kk:], ldl, c, ldc, 1, c[kk:], ldc)
	}
}

// relDiff returns max|got−want| / max(max|want|, tiny) over the leading
// m×n blocks of two column-major matrices.
func relDiff[F blas.Float](m, n int, got []F, ldg int, want []F, ldw int) float64 {
	var d, norm float64
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			g, w := float64(got[i+j*ldg]), float64(want[i+j*ldw])
			d = math.Max(d, math.Abs(g-w))
			norm = math.Max(norm, math.Abs(w))
		}
	}
	return d / math.Max(norm, math.SmallestNonzeroFloat64)
}

func eps[F blas.Float]() float64 { return float64(lapack.Epsilon[F]()) }

// kernelCase builds one random tile pair: U (n×n upper triangle in an
// ldu×n tile, ldu ≥ n), A2 (m2×n, leading dimension lda2 ≥ m2), and a
// right-hand-side pair C1 (ldu×nc) and C2 (m2×nc, leading dimension lda2).
type kernelCase[F blas.Float] struct {
	n, m2, nc, ldu, lda2 int
	u, a2, c1, c2        []F
}

func newKernelCase[F blas.Float](rng *rand.Rand, n, m2, nc, padU, padA int) kernelCase[F] {
	kc := kernelCase[F]{n: n, m2: m2, nc: nc, ldu: n + padU, lda2: m2 + padA}
	kc.u = matgen.Dense[F](rng, kc.ldu, n)
	for j := 0; j < n; j++ {
		// A well-scaled diagonal keeps the comparison about association,
		// not about a near-singular U amplifying rounding.
		kc.u[j+j*kc.ldu] += F(4 * math.Copysign(1, float64(kc.u[j+j*kc.ldu])))
	}
	kc.a2 = matgen.Dense[F](rng, kc.lda2, n)
	kc.c1 = matgen.Dense[F](rng, kc.ldu, nc)
	kc.c2 = matgen.Dense[F](rng, kc.lda2, nc)
	return kc
}

func cloneF[F blas.Float](v []F) []F { return append([]F(nil), v...) }

// checkKernelsMatchStacked runs both eliminations on copies of kc and
// compares the pivots, the updated U, the error, and the transformed RHS.
func checkKernelsMatchStacked[F blas.Float](t *testing.T, kc kernelCase[F], tol float64) {
	t.Helper()
	n, m2, nc := kc.n, kc.m2, kc.nc
	ur, ar := cloneF(kc.u), cloneF(kc.a2)
	stackL, rpiv, rerr := refTstrf(n, m2, ur, kc.ldu, ar, kc.lda2)
	c1r, c2r := cloneF(kc.c1), cloneF(kc.c2)
	refSsssm(n, m2, nc, stackL, rpiv, c1r, kc.ldu, c2r, kc.lda2)

	un, an := cloneF(kc.u), cloneF(kc.a2)
	linv, piv, err := tstrf(n, m2, un, kc.ldu, an, kc.lda2)
	c1n, c2n := cloneF(kc.c1), cloneF(kc.c2)
	ssssm(n, m2, nc, linv, piv, an, kc.lda2, c1n, kc.ldu, c2n, kc.lda2)

	tag := func() string { return fmt.Sprintf("n=%d m2=%d nc=%d", n, m2, nc) }
	if len(linv) != min(ibMax, n)*n {
		t.Fatalf("%s: StackL has %d elements, want ib·n = %d", tag(), len(linv), min(ibMax, n)*n)
	}
	for j := range piv {
		if piv[j] != rpiv[j] {
			t.Fatalf("%s: pivot %d = %d, stacked elimination chose %d", tag(), j, piv[j], rpiv[j])
		}
	}
	var se, rse *lapack.SingularError
	if errors.As(err, &se) != errors.As(rerr, &rse) || (se != nil && se.Index != rse.Index) {
		t.Fatalf("%s: error %v, stacked elimination reported %v", tag(), err, rerr)
	}
	// U: the upper triangle only; the strictly-lower part of the diagonal
	// tile belongs to getrf and must be untouched.
	var du, nu float64
	for j := 0; j < n; j++ {
		for i := 0; i < kc.ldu; i++ {
			g, w := float64(un[i+j*kc.ldu]), float64(ur[i+j*kc.ldu])
			if i > j {
				if un[i+j*kc.ldu] != kc.u[i+j*kc.ldu] {
					t.Fatalf("%s: tstrf wrote U's strictly-lower entry (%d,%d)", tag(), i, j)
				}
				continue
			}
			du = math.Max(du, math.Abs(g-w))
			nu = math.Max(nu, math.Abs(w))
		}
	}
	if du > tol*nu {
		t.Errorf("%s: U differs from the stacked elimination by %.3g (relative), tol %.3g", tag(), du/nu, tol)
	}
	if d := relDiff(n, nc, c1n, kc.ldu, c1r, kc.ldu); d > tol {
		t.Errorf("%s: C1 differs by %.3g (relative), tol %.3g", tag(), d, tol)
	}
	if d := relDiff(m2, nc, c2n, kc.lda2, c2r, kc.lda2); d > tol {
		t.Errorf("%s: C2 differs by %.3g (relative), tol %.3g", tag(), d, tol)
	}
	// Rows of C1 below the top n are not part of the transform.
	for j := 0; j < nc; j++ {
		for i := n; i < kc.ldu; i++ {
			if c1n[i+j*kc.ldu] != kc.c1[i+j*kc.ldu] {
				t.Fatalf("%s: ssssm wrote C1 row %d below the top n", tag(), i)
			}
		}
	}
}

// kernelShapes are the fixed geometries: n < ib, n = ib, n not a multiple
// of ib, m2 < n, m2 = 1, a single column, and full 96-tiles.
var kernelShapes = [][3]int{
	{1, 1, 1}, {1, 7, 3}, {5, 9, 4}, {16, 16, 16}, {31, 40, 7}, {32, 32, 32},
	{33, 12, 50}, {48, 48, 48}, {70, 3, 70}, {70, 100, 33}, {96, 96, 96}, {96, 1, 96}, {100, 37, 1},
}

func testKernelsMatchStacked[F blas.Float](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range kernelShapes {
		checkKernelsMatchStacked(t, newKernelCase[F](rng, sh[0], sh[1], sh[2], 0, 0), tol)
		checkKernelsMatchStacked(t, newKernelCase[F](rng, sh[0], sh[1], sh[2], 3, 2), tol)
	}
	for trial := 0; trial < 60; trial++ {
		n, m2, nc := 1+rng.Intn(110), 1+rng.Intn(110), 1+rng.Intn(110)
		checkKernelsMatchStacked(t, newKernelCase[F](rng, n, m2, nc, rng.Intn(4), rng.Intn(4)), tol)
	}
}

func TestTileLUKernelsMatchStackedFloat64(t *testing.T) {
	testKernelsMatchStacked[float64](t, 200*eps[float64]())
}

func TestTileLUKernelsMatchStackedFloat32(t *testing.T) {
	testKernelsMatchStacked[float32](t, 200*eps[float32]())
}

// TestTileLUKernelsZeroPivotIndex: a column whose every pivot candidate is
// exactly zero is reported at the same SingularError.Index as the stacked
// elimination, wherever it falls relative to the inner panels, and the
// elimination of the remaining columns still matches.
func TestTileLUKernelsZeroPivotIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range [][2]int{{5, 9}, {40, 40}, {96, 96}, {70, 3}} {
		n, m2 := sh[0], sh[1]
		for _, zc := range []int{0, n / 2, min(ibMax, n) - 1, min(ibMax, n-1), n - 1} {
			kc := newKernelCase[float64](rng, n, m2, 8, 1, 1)
			for i := 0; i <= zc; i++ {
				kc.u[i+zc*kc.ldu] = 0
			}
			for i := 0; i < m2; i++ {
				kc.a2[i+zc*kc.lda2] = 0
			}
			_, _, err := tstrf(n, m2, cloneF(kc.u), kc.ldu, cloneF(kc.a2), kc.lda2)
			var se *lapack.SingularError
			if !errors.As(err, &se) || se.Index != zc {
				t.Fatalf("n=%d m2=%d zero column %d: got %v", n, m2, zc, err)
			}
			checkKernelsMatchStacked(t, kc, 200*eps[float64]())
		}
	}
}

// refLU is a sequential tile LU with the stacked kernels and Trsm-based
// gessm, applied to the right-hand side as well: the reference the tiled
// DAG is compared with.
func refLU[F blas.Float](a, b *tile.Matrix[F]) error {
	kt := min(a.MT, a.NT)
	var first error
	note := func(err error, k int) {
		if err != nil && first == nil {
			first = &lapack.SingularError{Index: k*a.NB + err.(*lapack.SingularError).Index}
		}
	}
	for k := 0; k < kt; k++ {
		tr, tc := a.TileRows(k), a.TileCols(k)
		kk := min(tr, tc)
		piv := make([]int, kk)
		note(lapack.Getrf(tr, tc, a.Tile(k, k), tr, piv), k)
		for j := k + 1; j < a.NT; j++ {
			refGessm(tr, a.TileCols(j), kk, piv, a.Tile(k, k), tr, a.Tile(k, j), tr)
		}
		for j := 0; j < b.NT; j++ {
			refGessm(b.TileRows(k), b.TileCols(j), kk, piv, a.Tile(k, k), tr, b.Tile(k, j), b.TileRows(k))
		}
		for i := k + 1; i < a.MT; i++ {
			l, sp, err := refTstrf(tc, a.TileRows(i), a.Tile(k, k), tr, a.Tile(i, k), a.TileRows(i))
			note(err, k)
			for j := k + 1; j < a.NT; j++ {
				refSsssm(tc, a.TileRows(i), a.TileCols(j), l, sp, a.Tile(k, j), tr, a.Tile(i, j), a.TileRows(i))
			}
			for j := 0; j < b.NT; j++ {
				refSsssm(tc, a.TileRows(i), b.TileCols(j), l, sp, b.Tile(k, j), b.TileRows(k), b.Tile(i, j), b.TileRows(i))
			}
		}
	}
	return first
}

// upperOf returns the upper triangle (U) of the factored tiled matrix.
func upperOf[F blas.Float](a *tile.Matrix[F]) []F {
	d := a.ToColMajor()
	for j := 0; j < a.N; j++ {
		for i := j + 1; i < a.M; i++ {
			d[i+j*a.M] = 0
		}
	}
	return d
}

func testLUApplyMatchesStacked[F blas.Float](t *testing.T, tol float64) {
	rng := rand.New(rand.NewSource(23))
	// {m, n, nb, nrhs}: square, ragged, single-tile, tall and wide.
	for _, sh := range [][4]int{{100, 100, 32, 3}, {96, 96, 48, 2}, {70, 70, 96, 1}, {50, 50, 16, 4},
		{130, 130, 40, 5}, {200, 200, 96, 1}, {100, 70, 32, 2}, {70, 100, 32, 2}} {
		m, n, nb, nrhs := sh[0], sh[1], sh[2], sh[3]
		aD := matgen.Dense[F](rng, m, n)
		bD := matgen.Dense[F](rng, m, nrhs)
		ar := tile.FromColMajor(m, n, aD, m, nb)
		br := tile.FromColMajor(m, nrhs, bD, m, nb)
		if err := refLU(ar, br); err != nil {
			t.Fatal(err)
		}
		an := tile.FromColMajor(m, n, aD, m, nb)
		bn := tile.FromColMajor(m, nrhs, bD, m, nb)
		rec := sched.NewRecorder()
		f, err := LU(rec, an)
		if err != nil {
			t.Fatal(err)
		}
		ApplyLU(rec, f, bn)
		rec.Wait()
		if d := relDiff(m, n, upperOf(an), m, upperOf(ar), m); d > tol {
			t.Errorf("%d×%d nb=%d: U differs from the stacked reference by %.3g, tol %.3g", m, n, nb, d, tol)
		}
		if d := relDiff(m, nrhs, bn.ToColMajor(), m, br.ToColMajor(), m); d > tol {
			t.Errorf("%d×%d nb=%d: L⁻¹·P·B differs from the stacked reference by %.3g, tol %.3g", m, n, nb, d, tol)
		}
	}
}

// TestTileLUApplyMatchesStacked drives the kernels through the real DAG
// (LU then ApplyLU, ragged last tiles and tall or wide matrices included)
// and compares U and the forward-eliminated right-hand side with the
// sequential stacked reference.
func TestTileLUApplyMatchesStacked(t *testing.T) {
	testLUApplyMatchesStacked[float64](t, 2e3*eps[float64]())
	testLUApplyMatchesStacked[float32](t, 2e3*eps[float32]())
}

// TestTileLUSingularIndexMatchesStacked: an exactly zero column of the
// whole matrix is reported at the same global index by the tiled DAG and
// by the stacked reference.
func TestTileLUSingularIndexMatchesStacked(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n, nb = 130, 48
	for _, zc := range []int{0, 31, 60, 100, 129} {
		aD := matgen.Dense[float64](rng, n, n)
		for i := 0; i < n; i++ {
			aD[i+zc*n] = 0
		}
		ar := tile.FromColMajor(n, n, aD, n, nb)
		br := tile.FromColMajor(n, 1, make([]float64, n), n, nb)
		rerr := refLU(ar, br)
		_, err := LU(sched.NewRecorder(), tile.FromColMajor(n, n, aD, n, nb))
		var se, rse *lapack.SingularError
		if !errors.As(rerr, &rse) || !errors.As(err, &se) || se.Index != rse.Index || se.Index != zc {
			t.Errorf("zero column %d: tiled LU reported %v, stacked reference %v", zc, err, rerr)
		}
	}
}
