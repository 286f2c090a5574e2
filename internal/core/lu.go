package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// LUFactors holds the output of the tile LU factorization with incremental
// (block pairwise) pivoting — the tile algorithm's trade of a slightly
// weaker pivoting strategy for a barrier-free DAG, exactly the compromise
// the extreme-scale argument discusses.
//
// After factorization:
//   - diagonal tiles hold the L\U of their local factorization, with U
//     updated by later TSTRF steps;
//   - super-diagonal tiles hold the final U blocks;
//   - sub-diagonal tiles A(i,k) hold L2, the multipliers of TSTRF's
//     elimination of A(i,k) against U_kk, one ib-column panel at a time;
//   - DiagPiv[k] holds the partial pivoting permutation of step k's
//     diagonal factorization;
//   - StackL and StackPiv hold, for each (i, k) with i > k, the rest of
//     that elimination: StackL is ib×nbₖ (leading dimension ib), holding
//     for each panel starting at column c the explicit inverse of its
//     sb×sb unit-lower block L1 in columns c..c+sb-1 (unit diagonal and
//     zero upper triangle stored); StackPiv[j] is j when column j pivoted
//     on U_kk's diagonal, or nbₖ+r when it pivoted on row r of A(i,k).
type LUFactors[F blas.Float] struct {
	A       *tile.Matrix[F]
	DiagPiv [][]int
	// StackL and StackPiv are indexed by i + k·MT.
	StackL   [][]F
	StackPiv [][]int
}

func (f *LUFactors[F]) stackIdx(i, k int) int { return i + k*f.A.MT }

// LU computes the tile LU factorization of A with incremental pivoting as
// one dataflow graph. A singular pivot is reported after completion, like
// LAPACK's GETRF; the factorization still runs to completion.
func LU[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) (*LUFactors[F], error) {
	f := newLUFactors(a)
	es := &errState{}
	submitLU(s, f, es, false)
	return f, finishErr(es, s)
}

// LUForkJoin is the block-synchronous baseline of LU.
func LUForkJoin[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) (*LUFactors[F], error) {
	f := newLUFactors(a)
	es := &errState{}
	submitLU(s, f, es, true)
	return f, finishErr(es, s)
}

func newLUFactors[F blas.Float](a *tile.Matrix[F]) *LUFactors[F] {
	return &LUFactors[F]{
		A:        a,
		DiagPiv:  make([][]int, min(a.MT, a.NT)),
		StackL:   make([][]F, a.MT*a.NT),
		StackPiv: make([][]int, a.MT*a.NT),
	}
}

func submitLU[F blas.Float](s sched.Scheduler, f *LUFactors[F], es *errState, forkJoin bool) {
	submitLURange(s, f, es, forkJoin, 0, nil)
}

// submitLURange submits the LU DAG starting at panel step `from` (tiles
// and the pivot/stack state of earlier steps must already be in place —
// the checkpoint/restart path). afterStep, if non-nil, runs after each
// step's submissions, where checkpoint or abort tasks are injected.
func submitLURange[F blas.Float](s sched.Scheduler, f *LUFactors[F], es *errState, forkJoin bool, from int, afterStep func(k int)) {
	a := f.A
	kt := min(a.MT, a.NT)
	for k := from; k < kt; k++ {
		k := k
		s.Submit(sched.Task{
			Name:     "getrf",
			Priority: prioPanel(k, kt),
			Writes:   []sched.Handle{a.Handle(k, k)},
			Fn: timed(panelNs, func() {
				tr, tc := a.TileRows(k), a.TileCols(k)
				piv := make([]int, min(tr, tc))
				if err := lapack.Getrf(tr, tc, a.Tile(k, k), tr, piv); err != nil {
					serr := err.(*lapack.SingularError)
					es.set(&lapack.SingularError{Index: k*a.NB + serr.Index})
				}
				f.DiagPiv[k] = piv
			}),
		})
		if forkJoin {
			s.Wait()
		}
		for j := k + 1; j < a.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "gessm",
				Priority: prioSolve(j, kt),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{a.Handle(k, j)},
				Fn: timed(solveNs, func() {
					gessm(a.TileRows(k), a.TileCols(j), min(a.TileRows(k), a.TileCols(k)),
						f.DiagPiv[k], a.Tile(k, k), a.TileRows(k),
						a.Tile(k, j), a.TileRows(k))
				}),
			})
		}
		if forkJoin {
			s.Wait()
		}
		for i := k + 1; i < a.MT; i++ {
			i := i
			s.Submit(sched.Task{
				Name:     "tstrf",
				Priority: prioPanel(k, kt),
				Writes:   []sched.Handle{a.Handle(k, k), a.Handle(i, k)},
				Fn: timed(panelNs, func() {
					tc := a.TileCols(k)
					tr2 := a.TileRows(i)
					l, piv, err := tstrf(tc, tr2,
						a.Tile(k, k), a.TileRows(k),
						a.Tile(i, k), tr2)
					if err != nil {
						serr := err.(*lapack.SingularError)
						es.set(&lapack.SingularError{Index: k*a.NB + serr.Index})
					}
					f.StackL[f.stackIdx(i, k)] = l
					f.StackPiv[f.stackIdx(i, k)] = piv
				}),
			})
			for j := k + 1; j < a.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "ssssm",
					Priority: prioUpdate(j, kt),
					Reads:    []sched.Handle{a.Handle(i, k)},
					Writes:   []sched.Handle{a.Handle(k, j), a.Handle(i, j)},
					Fn: timed(updateNs, func() {
						ssssm(a.TileCols(k), a.TileRows(i), a.TileCols(j),
							f.StackL[f.stackIdx(i, k)], f.StackPiv[f.stackIdx(i, k)],
							a.Tile(i, k), a.TileRows(i),
							a.Tile(k, j), a.TileRows(k),
							a.Tile(i, j), a.TileRows(i))
					}),
				})
			}
			if forkJoin {
				s.Wait()
			}
		}
		if afterStep != nil {
			afterStep(k)
		}
	}
}

// ibMax is the inner blocking of tstrf and ssssm (PLASMA's IB): a tile
// pair is eliminated ib = min(ibMax, n) columns at a time, so the level-2
// pivot search and rank-1 updates stay inside a narrow panel and the bulk
// of the flops, the unit-lower solves included, runs as GEMM. 32 measured
// best of {16, 24, 32, 48} at nb = 96.
const ibMax = 32

// gessm applies the diagonal tile's LU transform (pivots piv, unit-lower
// factor in the tile's strict lower triangle, kk eliminations) to the
// m×n tile C.
func gessm[F blas.Float](m, n, kk int, piv []int, l []F, ldl int, c []F, ldc int) {
	lapack.Laswp(n, c, ldc, 0, kk, piv)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, kk, n, 1, l, ldl, c, ldc)
	if m > kk {
		// Rows below the eliminated block also carry multipliers (tall
		// diagonal tiles at the matrix boundary).
		blas.Gemm(blas.NoTrans, blas.NoTrans, m-kk, n, kk,
			-1, l[kk:], ldl, c, ldc, 1, c[kk:], ldc)
	}
}

// invertUnitLower overwrites the sb×sb unit-lower triangle d, given by its
// strictly-lower entries over a zero upper triangle, with its explicit
// inverse, unit diagonal and zero upper triangle stored, ready for GEMM.
func invertUnitLower[F blas.Float](sb int, d []F, ldd int) {
	_ = lapack.Trtri(blas.Lower, blas.Unit, sb, d, ldd) // a unit triangle is never singular
	for c := 0; c < sb; c++ {
		d[c+c*ldd] = 1
	}
}

// applyInverse is one panel of a blocked unit-lower forward substitution:
// X ← L1⁻¹·X for the sb×nc block X (L1⁻¹ given explicitly in linv), then
// C2 −= L2·X for the m2×sb multipliers l2 and the m2×nc block C2. Both
// steps are GEMMs; w is scratch of at least sb·nc elements.
func applyInverse[F blas.Float](sb, m2, nc int, linv []F, ldli int, l2 []F, ldl2 int, x []F, ldx int, c2 []F, ldc2 int, w []F) {
	lapack.Lacpy(lapack.General, sb, nc, x, ldx, w, sb)
	blas.Gemm(blas.NoTrans, blas.NoTrans, sb, nc, sb, 1, linv, ldli, w, sb, 0, x, ldx)
	if m2 > 0 {
		blas.Gemm(blas.NoTrans, blas.NoTrans, m2, nc, sb, -1, l2, ldl2, x, ldx, 1, c2, ldc2)
	}
}

// tstrf eliminates the m2×n tile A2 against the n×n upper-triangular block
// U in the top of the diagonal tile (leading dimension ldu), with pivoting
// between U's diagonal and A2's column (PLASMA's CORE_dtstrf). It works in
// place, one ib-column panel at a time: the pivot search, row swaps and
// rank-1 updates stay inside the panel, and the finished panel is applied
// to the columns to its right by swaps plus GEMM (see applyPanel). On
// return U is updated, A2 holds the panels' L2 multipliers, and linv
// (ib×n, leading dimension ib) and piv hold the rest of the transform in
// the layout LUFactors documents. err reports the first column whose
// every pivot candidate was exactly zero, like Getf2.
func tstrf[F blas.Float](n, m2 int, u []F, ldu int, a2 []F, lda2 int) (linv []F, piv []int, err error) {
	ib := min(ibMax, n)
	linv = make([]F, ib*n)
	piv = make([]int, n)
	w := blas.GetScratch[F](ib * n)
	defer w.Release()
	firstZero := -1
	for ii := 0; ii < n; ii += ib {
		sb := min(ib, n-ii)
		l1 := linv[ii*ib:]
		for i := 0; i < sb; i++ {
			j := ii + i
			col := a2[j*lda2 : j*lda2+m2]
			// Getf2's scan order: U's diagonal first, a later row wins
			// only if strictly larger.
			mx, p := abs(u[j+j*ldu]), -1
			for r, v := range col {
				if av := abs(v); av > mx {
					mx, p = av, r
				}
			}
			piv[j] = j
			if p >= 0 {
				piv[j] = n + p
				// Swap behind: row p's multipliers in this panel move up
				// into L1; the U row brings zeros down.
				for c := 0; c < i; c++ {
					l1[i+c*ib] = a2[p+(ii+c)*lda2]
					a2[p+(ii+c)*lda2] = 0
				}
				// Swap ahead, within the panel.
				blas.Swap(sb-i, u[j+j*ldu:], ldu, a2[p+j*lda2:], lda2)
			}
			if u[j+j*ldu] == 0 {
				if firstZero < 0 {
					firstZero = j
				}
				continue // zero column: multipliers stay zero
			}
			inv := 1 / u[j+j*ldu]
			for r := range col {
				col[r] *= inv
			}
			if i+1 < sb {
				blas.Ger(m2, sb-i-1, -1, col, 1, u[j+(j+1)*ldu:], ldu, a2[(j+1)*lda2:], lda2)
			}
		}
		invertUnitLower(sb, l1, ib)
		if nc := n - ii - sb; nc > 0 {
			applyPanel(n, ii, sb, m2, nc, linv, piv, a2[ii*lda2:], lda2,
				u[(ii+sb)*ldu:], ldu, a2[(ii+sb)*lda2:], lda2, w.Buf)
		}
	}
	if firstZero >= 0 {
		err = &lapack.SingularError{Index: firstZero}
	}
	return linv, piv, err
}

// applyPanel applies one tstrf panel — columns ii..ii+sb-1 of an n-column
// elimination, with L1⁻¹ blocks linv (leading dimension ib = min(ibMax,
// n)), pivots piv and L2 multipliers l2 (m2×sb, the panel's columns of the
// eliminated tile) — to the nc-column pair [C1; C2]: rows ii..ii+sb-1 of
// C1 and all m2 rows of C2. w is scratch of at least sb·nc elements.
func applyPanel[F blas.Float](n, ii, sb, m2, nc int, linv []F, piv []int, l2 []F, ldl2 int, c1 []F, ldc1 int, c2 []F, ldc2 int, w []F) {
	ib := min(ibMax, n)
	for j := ii; j < ii+sb; j++ {
		if p := piv[j]; p != j {
			blas.Swap(nc, c1[j:], ldc1, c2[p-n:], ldc2)
		}
	}
	applyInverse(sb, m2, nc, linv[ii*ib:], ib, l2, ldl2, c1[ii:], ldc1, c2, ldc2, w)
}

// ssssm applies a tstrf transform (n eliminations with inverse blocks
// linv and pivots piv, L2 multipliers read from the eliminated m2×n tile
// l2) to the pair of tiles C1 (top n rows used, leading dimension ldc1)
// and C2 (m2×nc), panel by panel, in place.
func ssssm[F blas.Float](n, m2, nc int, linv []F, piv []int, l2 []F, ldl2 int, c1 []F, ldc1 int, c2 []F, ldc2 int) {
	ib := min(ibMax, n)
	w := blas.GetScratch[F](ib * nc)
	for ii := 0; ii < n; ii += ib {
		applyPanel(n, ii, min(ib, n-ii), m2, nc, linv, piv, l2[ii*ldl2:], ldl2, c1, ldc1, c2, ldc2, w.Buf)
	}
	w.Release()
}

func abs[F blas.Float](x F) F {
	if x < 0 {
		return -x
	}
	return x
}

// ApplyLU submits tasks applying the forward elimination recorded in the
// LU factors to the tiled right-hand side B in place (the analogue of the
// row-swap + L-solve half of GETRS), replaying the factorization order.
func ApplyLU[F blas.Float](s sched.Scheduler, f *LUFactors[F], b *tile.Matrix[F]) {
	a := f.A
	kt := min(a.MT, a.NT)
	for k := 0; k < kt; k++ {
		k := k
		for j := 0; j < b.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "gessm",
				Priority: prioSolve(k, kt),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{b.Handle(k, j)},
				Fn: timed(solveNs, func() {
					gessm(b.TileRows(k), b.TileCols(j), min(a.TileRows(k), a.TileCols(k)),
						f.DiagPiv[k], a.Tile(k, k), a.TileRows(k),
						b.Tile(k, j), b.TileRows(k))
				}),
			})
		}
		for i := k + 1; i < a.MT; i++ {
			i := i
			for j := 0; j < b.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "ssssm",
					Priority: prioUpdate(k, kt),
					Reads:    []sched.Handle{a.Handle(i, k)},
					Writes:   []sched.Handle{b.Handle(k, j), b.Handle(i, j)},
					Fn: timed(updateNs, func() {
						ssssm(a.TileCols(k), a.TileRows(i), b.TileCols(j),
							f.StackL[f.stackIdx(i, k)], f.StackPiv[f.stackIdx(i, k)],
							a.Tile(i, k), a.TileRows(i),
							b.Tile(k, j), b.TileRows(k),
							b.Tile(i, j), b.TileRows(i))
					}),
				})
			}
		}
	}
}

// Gesv factors the square tiled matrix A in place and solves A·X = B in
// place, all in one dataflow graph.
func Gesv[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) (*LUFactors[F], error) {
	if a.M != a.N {
		panic("core: Gesv needs a square matrix")
	}
	f := newLUFactors(a)
	es := &errState{}
	submitLU(s, f, es, false)
	ApplyLU(s, f, b)
	TrsmUpper(s, a, b)
	return f, finishErr(es, s)
}
