package main

import "math"

// Every answer is checked off the clock against the benchmark's own pristine
// copy of its inputs. A check failure counts as a failed operation.

// residualLimit bounds the scaled residual of an accepted answer; it is the
// threshold the LAPACK test suite uses.
const residualLimit = 30

const eps = 0x1p-52

func normInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
		if v != v {
			return math.NaN()
		}
	}
	return m
}

// matNormInf returns the largest absolute row sum of the column-major m×n a.
func matNormInf(m, n int, a []float64) float64 {
	rows := make([]float64, m)
	for j := 0; j < n; j++ {
		for i, v := range a[j*m : (j+1)*m] {
			rows[i] += math.Abs(v)
		}
	}
	return normInf(rows)
}

// matVec returns a·x for the column-major m×n a.
func matVec(m, n int, a, x []float64) []float64 {
	y := make([]float64, m)
	for j := 0; j < n; j++ {
		xj := x[j]
		for i, v := range a[j*m : (j+1)*m] {
			y[i] += v * xj
		}
	}
	return y
}

// solveResidual returns ‖b−A·x‖∞ / (‖A‖∞·‖x‖∞·max(m,n)·ε) for the m×n
// column-major A, the n-vector x and the m-vector b. It is NaN when x holds
// a NaN.
func solveResidual(m, n int, a, x, b []float64) float64 {
	ax := matVec(m, n, a, x)
	for i := range ax {
		ax[i] = b[i] - ax[i]
	}
	return normInf(ax) / (matNormInf(m, n, a) * normInf(x) * float64(max(m, n)) * eps)
}

// solvedOK reports whether x solves A·x = b (in the least-squares sense for a
// consistent tall system) to within residualLimit.
func solvedOK(m, n int, a, x, b []float64) bool {
	return len(x) == n && solveResidual(m, n, a, x, b) <= residualLimit
}

// factorResidual probes a packed n×n factor f of A with the vector v in
// O(n²): ‖A·v − L·(R·v)‖∞ / (‖A‖∞·‖v‖∞·n·ε). For Cholesky (lu false) L is
// the lower triangle of f and R = Lᵀ; for LU without pivoting L is the
// strictly lower triangle of f with a unit diagonal and R the upper
// triangle. Only the triangles named are read.
func factorResidual(n int, a, f []float64, lu bool, v []float64) float64 {
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		col := f[k*n : (k+1)*n]
		if lu { // w += U[:,k]·v[k]
			for i := 0; i <= k; i++ {
				w[i] += col[i] * v[k]
			}
		} else { // w[k] = L[:,k]ᵀ·v over the lower part
			var s float64
			for i := k; i < n; i++ {
				s += col[i] * v[i]
			}
			w[k] = s
		}
	}
	y := make([]float64, n)
	for k := 0; k < n; k++ {
		col := f[k*n : (k+1)*n]
		first := k
		if lu {
			y[k] += w[k]
			first = k + 1
		}
		for i := first; i < n; i++ {
			y[i] += col[i] * w[k]
		}
	}
	av := matVec(n, n, a, v)
	for i := range av {
		av[i] -= y[i]
	}
	return normInf(av) / (matNormInf(n, n, a) * normInf(v) * float64(n) * eps)
}

// tally counts operations: attempted, failed (a failed call, a failed check,
// or a shed job), and shed (refused by admission control).
type tally struct {
	attempted, failed, shed int
}

// record counts one operation that ended with err and whose answer passed
// its check when ok.
func (t *tally) record(err error, ok bool) {
	t.attempted++
	if err != nil || !ok {
		t.failed++
	}
}

// add folds another tally into t.
func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.failed += u.failed
	t.shed += u.shed
}
