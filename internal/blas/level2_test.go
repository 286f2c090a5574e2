package blas

import (
	"math"
	"math/rand"
	"testing"
)

func TestGemvAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, dims := range [][2]int{{0, 3}, {1, 1}, {5, 3}, {3, 5}, {17, 23}, {64, 64}} {
			m, n := dims[0], dims[1]
			lda := m + 2
			if lda < 1 {
				lda = 1
			}
			a := randMat(rng, m, n, lda)
			lx, ly := n, m
			if trans == Trans {
				lx, ly = m, n
			}
			x := randSlice(rng, lx)
			y := randSlice(rng, ly)
			yRef := append([]float64(nil), y...)
			alpha, beta := 1.3, -0.7
			Gemv(trans, m, n, alpha, a, lda, x, 1, beta, y, 1)
			RefGemv(trans, m, n, alpha, a, lda, x, 1, beta, yRef, 1)
			if d := maxAbsDiff(y, yRef); d > tol64*float64(m+n+1) {
				t.Errorf("Gemv %v %dx%d: max diff %g", trans, m, n, d)
			}
		}
	}
}

func TestGemvStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n := 9, 7
	lda := m
	a := randMat(rng, m, n, lda)
	x := randSlice(rng, 2*n)
	y := randSlice(rng, 3*m)
	yRef := append([]float64(nil), y...)
	Gemv(NoTrans, m, n, 2.0, a, lda, x, 2, 0.5, y, 3)
	RefGemv(NoTrans, m, n, 2.0, a, lda, x, 2, 0.5, yRef, 3)
	if d := maxAbsDiff(y, yRef); d > tol64*float64(m+n) {
		t.Errorf("strided Gemv: max diff %g", d)
	}
}

func TestGer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n := 13, 8
	lda := m + 1
	a := randMat(rng, m, n, lda)
	aRef := append([]float64(nil), a...)
	x := randSlice(rng, m)
	y := randSlice(rng, n)
	Ger(m, n, 1.5, x, 1, y, 1, a, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			aRef[i+j*lda] += 1.5 * x[i] * y[j]
		}
	}
	if d := maxAbsDiff(a, aRef); d > tol64 {
		t.Errorf("Ger: max diff %g", d)
	}
}

// TestGerShapesAndStrides covers the rank-1 update's vector tails (row
// counts around multiples of 4), strided y, and its zero-multiplier rule:
// a column whose α·y[j] is exactly zero is skipped, so an Inf in x leaves
// it untouched, while a NaN multiplier still propagates.
func TestGerShapesAndStrides(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{0, 1, 3, 4, 5, 15, 16, 17, 33} {
		for _, n := range []int{1, 3, 6} {
			for _, incY := range []int{1, 3, -2} {
				lda := m + 2
				a := randMat(rng, m, n, lda)
				aRef := append([]float64(nil), a...)
				x := randSlice(rng, m)
				ay := incY
				if ay < 0 {
					ay = -ay
				}
				y := randSlice(rng, (n-1)*ay+1)
				iy := func(j int) int {
					if incY < 0 {
						return (n - 1 - j) * ay
					}
					return j * ay
				}
				y[iy(n/2)] = 0
				Ger(m, n, -0.75, x, 1, y, incY, a, lda)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						aRef[i+j*lda] += -0.75 * y[iy(j)] * x[i]
					}
				}
				if d := maxAbsDiff(a, aRef); d > tol64 {
					t.Errorf("Ger m=%d n=%d incY=%d: max diff %g", m, n, incY, d)
				}
			}
		}
	}

	m, n := 7, 3
	a := make([]float64, m*n)
	x := make([]float64, m)
	x[5] = math.Inf(1)
	y := []float64{0, math.NaN(), 1}
	Ger(m, n, 1, x, 1, y, 1, a, m)
	for i := 0; i < m; i++ {
		if a[i] != 0 {
			t.Fatalf("zero multiplier column touched: a[%d] = %g", i, a[i])
		}
		if !math.IsNaN(a[i+m]) {
			t.Fatalf("NaN multiplier did not propagate: a[%d] = %g", i+m, a[i+m])
		}
	}
	if !math.IsInf(a[5+2*m], 1) {
		t.Fatalf("Inf in x did not reach column 2: %g", a[5+2*m])
	}
}

// TestAxpyUnitLengths checks the unit-stride axpy behind Ger, Trmv and the
// small Trsm leaves at every vector tail length, and that it writes no
// element of y past len(x).
func TestAxpyUnitLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for n := 0; n <= 37; n++ {
		x := randSlice(rng, n)
		y := randSlice(rng, n+3)
		want := append([]float64(nil), y...)
		for i := range x {
			want[i] += 1.25 * x[i]
		}
		axpyUnit(1.25, x, y)
		if d := maxAbsDiff(y[:n], want[:n]); d > tol64 {
			t.Errorf("n=%d: max diff %g", n, d)
		}
		for i := n; i < n+3; i++ {
			if y[i] != want[i] {
				t.Errorf("n=%d: y[%d] written past len(x)", n, i)
			}
		}
	}
}

func TestSymv(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 11
	lda := n
	// Build a full symmetric matrix, then test both triangle encodings.
	full := randMat(rng, n, n, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			full[j+i*lda] = full[i+j*lda]
		}
	}
	x := randSlice(rng, n)
	for _, uplo := range []Uplo{Upper, Lower} {
		y := randSlice(rng, n)
		yRef := append([]float64(nil), y...)
		Symv(uplo, n, 0.9, full, lda, x, 1, 1.1, y, 1)
		RefGemv(NoTrans, n, n, 0.9, full, lda, x, 1, 1.1, yRef, 1)
		if d := maxAbsDiff(y, yRef); d > tol64*float64(n) {
			t.Errorf("Symv %v: max diff %g", uplo, d)
		}
	}
}

func TestTrmvTrsvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 16
	lda := n
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				a := randMat(rng, n, n, lda)
				// Make the diagonal well-conditioned.
				for i := 0; i < n; i++ {
					a[i+i*lda] = 2 + math.Abs(a[i+i*lda])
				}
				x := randSlice(rng, n)
				orig := append([]float64(nil), x...)
				Trmv(uplo, trans, diag, n, a, lda, x, 1)
				Trsv(uplo, trans, diag, n, a, lda, x, 1)
				if d := maxAbsDiff(x, orig); d > 1e-10 {
					t.Errorf("Trmv/Trsv %v %v %v: round-trip diff %g", uplo, trans, diag, d)
				}
			}
		}
	}
}

func TestTrsvSolvesSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 20
	lda := n
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			a := randMat(rng, n, n, lda)
			for i := 0; i < n; i++ {
				a[i+i*lda] = 3 + math.Abs(a[i+i*lda])
			}
			xTrue := randSlice(rng, n)
			// b = op(T)·x where T is the referenced triangle.
			b := append([]float64(nil), xTrue...)
			Trmv(uplo, trans, NonUnit, n, a, lda, b, 1)
			Trsv(uplo, trans, NonUnit, n, a, lda, b, 1)
			if d := maxAbsDiff(b, xTrue); d > 1e-9 {
				t.Errorf("Trsv %v %v: solution diff %g", uplo, trans, d)
			}
		}
	}
}

func TestTrmvStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 8
	a := randMat(rng, n, n, n)
	x := randSlice(rng, 2*n)
	dense := make([]float64, n)
	for i := 0; i < n; i++ {
		dense[i] = x[2*i]
	}
	Trmv(Lower, NoTrans, NonUnit, n, a, n, x, 2)
	Trmv(Lower, NoTrans, NonUnit, n, a, n, dense, 1)
	for i := 0; i < n; i++ {
		if math.Abs(x[2*i]-dense[i]) > tol64 {
			t.Fatalf("strided Trmv[%d]: %v vs %v", i, x[2*i], dense[i])
		}
	}
}
