package blas

// level3Block is the diagonal-leaf size used to route Syrk and Trmm through
// the packed GEMM kernel: diagonal blocks of this order run the specialized
// triangular/symmetric small kernels, everything off-diagonal is a plain
// rectangular GEMM update that inherits the packed path's throughput. Kept
// small so that tile-sized operands (nb = 64–256) spend most of their flops
// in the packed kernel rather than the axpy leaves.
const level3Block = 32

// Syrk computes the symmetric rank-k update
//
//	C ← α·A·Aᵀ + β·C   (trans == NoTrans, A is n×k)
//	C ← α·Aᵀ·A + β·C   (trans == Trans,   A is k×n)
//
// where only the uplo triangle of the n×n matrix C is referenced and
// updated. Off-diagonal blocks are routed through the packed GEMM kernel.
func Syrk[T Float](uplo Uplo, trans Transpose, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int) {
	checkUplo(uplo)
	checkTrans(trans)
	if trans == NoTrans {
		checkMatrix("A", n, k, a, lda)
	} else {
		checkMatrix("A", k, n, a, lda)
	}
	checkMatrix("C", n, n, c, ldc)
	if n == 0 {
		return
	}
	start := syrkMetrics.Start()

	// Scale the referenced triangle of C.
	if beta != 1 {
		for j := 0; j < n; j++ {
			lo, hi := 0, j+1
			if uplo == Lower {
				lo, hi = j, n
			}
			col := c[j*ldc:]
			if beta == 0 {
				for i := lo; i < hi; i++ {
					col[i] = 0
				}
			} else {
				for i := lo; i < hi; i++ {
					col[i] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		// No product work performed; charge zero so GF/s stays truthful.
		syrkMetrics.Stop(start, 0)
		return
	}

	syrkRec(uplo, trans, n, k, alpha, a, lda, c, ldc)
	syrkMetrics.Stop(start, int64(n)*int64(n+1)*int64(k))
}

// syrkRec recursively halves the updated triangle: the two diagonal halves
// recurse (down to level3Block-sized leaves handled by syrkKernel) and the
// off-diagonal coupling block — the bulk of the flops — is one rectangular
// gemmAccum update at packed-kernel speed.
func syrkRec[T Float](uplo Uplo, trans Transpose, n, k int, alpha T, a []T, lda int, c []T, ldc int) {
	if n <= level3Block {
		syrkKernel(uplo, trans, n, k, alpha, a, lda, c, ldc)
		return
	}
	n1 := n / 2
	n2 := n - n1
	// Rows (NoTrans) or columns (Trans) n1: of A feed the second half.
	a1, a2 := a, a[n1:]
	if trans == Trans {
		a2 = a[n1*lda:]
	}
	syrkRec(uplo, trans, n1, k, alpha, a1, lda, c, ldc)
	if uplo == Lower {
		// C21 += α·A2·A1ᵀ (n2×n1).
		if trans == NoTrans {
			gemmAccum(NoTrans, Trans, n2, n1, k, alpha, a2, lda, a1, lda, c[n1:], ldc)
		} else {
			gemmAccum(Trans, NoTrans, n2, n1, k, alpha, a2, lda, a1, lda, c[n1:], ldc)
		}
	} else {
		// C12 += α·A1·A2ᵀ (n1×n2).
		if trans == NoTrans {
			gemmAccum(NoTrans, Trans, n1, n2, k, alpha, a1, lda, a2, lda, c[n1*ldc:], ldc)
		} else {
			gemmAccum(Trans, NoTrans, n1, n2, k, alpha, a1, lda, a2, lda, c[n1*ldc:], ldc)
		}
	}
	syrkRec(uplo, trans, n2, k, alpha, a2, lda, c[n1+n1*ldc:], ldc)
}

// syrkKernel accumulates the uplo triangle of C += α·op(A)·op(A)ᵀ for a
// diagonal block whose β-scaling has already been applied. Zero operand
// values are not skipped, so non-finite inputs propagate as in RefSyrk.
func syrkKernel[T Float](uplo Uplo, trans Transpose, n, k int, alpha T, a []T, lda int, c []T, ldc int) {
	if trans == NoTrans {
		// C[i,j] += α Σ_l A[i,l]·A[j,l]: accumulate column-wise axpy.
		for l := 0; l < k; l++ {
			acol := a[l*lda : l*lda+n]
			for j := 0; j < n; j++ {
				v := alpha * acol[j]
				ccol := c[j*ldc:]
				if uplo == Lower {
					for i := j; i < n; i++ {
						ccol[i] += v * acol[i]
					}
				} else {
					for i := 0; i <= j; i++ {
						ccol[i] += v * acol[i]
					}
				}
			}
		}
		return
	}
	// trans == Trans: C[i,j] += α·A[:,i]ᵀA[:,j]; columns contiguous.
	for j := 0; j < n; j++ {
		ajcol := a[j*lda : j*lda+k]
		ccol := c[j*ldc:]
		lo, hi := 0, j+1
		if uplo == Lower {
			lo, hi = j, n
		}
		for i := lo; i < hi; i++ {
			aicol := a[i*lda : i*lda+k]
			var s T
			for l, v := range ajcol {
				s += aicol[l] * v
			}
			ccol[i] += alpha * s
		}
	}
}

// Symm computes C ← α·A·B + β·C (side == Left) or C ← α·B·A + β·C
// (side == Right), where A is symmetric with only the uplo triangle stored
// and C is m×n.
func Symm[T Float](side Side, uplo Uplo, m, n int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	checkSide(side)
	checkUplo(uplo)
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("A", na, na, a, lda)
	checkMatrix("B", m, n, b, ldb)
	checkMatrix("C", m, n, c, ldc)
	if m == 0 || n == 0 {
		return
	}
	// Symm appears only on cold paths here; expand the symmetric operand
	// into a pooled scratch buffer and delegate to Gemm (whose packed path
	// and metrics it then shares) rather than duplicating its blocking.
	fullBuf := GetScratch[T](na * na)
	full := fullBuf.Buf
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			var v T
			if (uplo == Lower && i >= j) || (uplo == Upper && i <= j) {
				v = a[i+j*lda]
			} else {
				v = a[j+i*lda]
			}
			full[i+j*na] = v
		}
	}
	if side == Left {
		Gemm(NoTrans, NoTrans, m, n, m, alpha, full, na, b, ldb, beta, c, ldc)
	} else {
		Gemm(NoTrans, NoTrans, m, n, n, alpha, b, ldb, full, na, beta, c, ldc)
	}
	fullBuf.Release()
}

// Trmm computes B ← α·op(A)·B (side == Left) or B ← α·B·op(A)
// (side == Right) in place, where A is triangular and B is m×n. Large
// operands are partitioned so that only diagonal blocks run the triangular
// small kernel; the off-diagonal bulk goes through the packed GEMM path.
func Trmm[T Float](side Side, uplo Uplo, transA Transpose, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	checkSide(side)
	checkUplo(uplo)
	checkTrans(transA)
	checkDiag(diag)
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("A", na, na, a, lda)
	checkMatrix("B", m, n, b, ldb)
	if m == 0 || n == 0 {
		return
	}
	start := trmmMetrics.Start()
	if alpha == 0 {
		scaleMatrix(m, n, 0, b, ldb)
		trmmMetrics.Stop(start, 0)
		return
	}
	if side == Left {
		trmmLeft(uplo, transA, diag, m, n, a, lda, b, ldb)
	} else {
		trmmRight(uplo, transA, diag, m, n, a, lda, b, ldb)
	}
	// α is applied in one sweep at the end: the blocked updates must all
	// read unscaled row/column blocks, whatever the processing order.
	if alpha != 1 {
		for j := 0; j < n; j++ {
			Scal(m, alpha, b[j*ldb:j*ldb+m], 1)
		}
	}
	trmmMetrics.Stop(start, int64(m)*int64(n)*int64(na))
}

// trmmLeft computes B ← op(A)·B in place (α = 1).
func trmmLeft[T Float](uplo Uplo, transA Transpose, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	if m <= level3Block {
		trmmSmallLeft(uplo, transA, diag, m, n, a, lda, b, ldb)
		return
	}
	lowerEff := (uplo == Lower) == (transA == NoTrans)
	if lowerEff {
		// B_i ← op(A)_ii·B_i + Σ_{j<i} op(A)_ij·B_j, descending i so the
		// sum reads unprocessed (old) row blocks.
		last := (m - 1) / level3Block * level3Block
		for i0 := last; i0 >= 0; i0 -= level3Block {
			bi := min(level3Block, m-i0)
			trmmSmallLeft(uplo, transA, diag, bi, n, a[i0+i0*lda:], lda, b[i0:], ldb)
			for j0 := 0; j0 < i0; j0 += level3Block {
				bj := min(level3Block, i0-j0)
				if transA == NoTrans {
					gemmAccum(NoTrans, NoTrans, bi, n, bj, 1, a[i0+j0*lda:], lda, b[j0:], ldb, b[i0:], ldb)
				} else {
					gemmAccum(Trans, NoTrans, bi, n, bj, 1, a[j0+i0*lda:], lda, b[j0:], ldb, b[i0:], ldb)
				}
			}
		}
		return
	}
	// Effective upper triangle: ascending i, contributions from j > i.
	for i0 := 0; i0 < m; i0 += level3Block {
		bi := min(level3Block, m-i0)
		trmmSmallLeft(uplo, transA, diag, bi, n, a[i0+i0*lda:], lda, b[i0:], ldb)
		for j0 := i0 + bi; j0 < m; j0 += level3Block {
			bj := min(level3Block, m-j0)
			if transA == NoTrans {
				gemmAccum(NoTrans, NoTrans, bi, n, bj, 1, a[i0+j0*lda:], lda, b[j0:], ldb, b[i0:], ldb)
			} else {
				gemmAccum(Trans, NoTrans, bi, n, bj, 1, a[j0+i0*lda:], lda, b[j0:], ldb, b[i0:], ldb)
			}
		}
	}
}

// trmmRight computes B ← B·op(A) in place (α = 1).
func trmmRight[T Float](uplo Uplo, transA Transpose, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	if n <= level3Block {
		trmmSmallRight(uplo, transA, diag, m, n, a, lda, b, ldb)
		return
	}
	lowerEff := (uplo == Lower) == (transA == NoTrans)
	if lowerEff {
		// B_j ← B_j·op(A)_jj + Σ_{i>j} B_i·op(A)_ij, ascending j.
		for j0 := 0; j0 < n; j0 += level3Block {
			bj := min(level3Block, n-j0)
			trmmSmallRight(uplo, transA, diag, m, bj, a[j0+j0*lda:], lda, b[j0*ldb:], ldb)
			for i0 := j0 + bj; i0 < n; i0 += level3Block {
				bi := min(level3Block, n-i0)
				if transA == NoTrans {
					gemmAccum(NoTrans, NoTrans, m, bj, bi, 1, b[i0*ldb:], ldb, a[i0+j0*lda:], lda, b[j0*ldb:], ldb)
				} else {
					gemmAccum(NoTrans, Trans, m, bj, bi, 1, b[i0*ldb:], ldb, a[j0+i0*lda:], lda, b[j0*ldb:], ldb)
				}
			}
		}
		return
	}
	// Effective upper triangle: descending j, contributions from i < j.
	last := (n - 1) / level3Block * level3Block
	for j0 := last; j0 >= 0; j0 -= level3Block {
		bj := min(level3Block, n-j0)
		trmmSmallRight(uplo, transA, diag, m, bj, a[j0+j0*lda:], lda, b[j0*ldb:], ldb)
		for i0 := 0; i0 < j0; i0 += level3Block {
			bi := min(level3Block, j0-i0)
			if transA == NoTrans {
				gemmAccum(NoTrans, NoTrans, m, bj, bi, 1, b[i0*ldb:], ldb, a[i0+j0*lda:], lda, b[j0*ldb:], ldb)
			} else {
				gemmAccum(NoTrans, Trans, m, bj, bi, 1, b[i0*ldb:], ldb, a[j0+i0*lda:], lda, b[j0*ldb:], ldb)
			}
		}
	}
}

// trmmSmallLeft applies the triangular product column-by-column of B via
// Trmv (α = 1).
func trmmSmallLeft[T Float](uplo Uplo, transA Transpose, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	for j := 0; j < n; j++ {
		Trmv(uplo, transA, diag, m, a, lda, b[j*ldb:j*ldb+m], 1)
	}
}

// trmmSmallRight computes B ← B·op(A) as Bᵀ ← op(A)ᵀ·Bᵀ, operating on rows
// of B through a pooled row buffer (α = 1).
func trmmSmallRight[T Float](uplo Uplo, transA Transpose, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	// op'(A) is the flipped transpose.
	t := Trans
	if transA == Trans {
		t = NoTrans
	}
	rowBuf := GetScratch[T](n)
	row := rowBuf.Buf
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			row[j] = b[i+j*ldb]
		}
		Trmv(uplo, t, diag, n, a, lda, row, 1)
		for j := 0; j < n; j++ {
			b[i+j*ldb] = row[j]
		}
	}
	rowBuf.Release()
}

// Trsm solves one of the triangular systems
//
//	op(A)·X = α·B   (side == Left)
//	X·op(A) = α·B   (side == Right)
//
// in place: X overwrites the m×n matrix B. A is m×m (Left) or n×n (Right).
// Triangles larger than trsmBlock are solved recursively: the triangle is
// split in half, each half solved in turn, and the rectangular coupling
// block applied as a GEMM update that inherits the packed kernel's
// throughput — so tile-sized solves run at GEMM speed rather than the
// substitution loops' (which handle only the trsmBlock-sized diagonal
// leaves).
func Trsm[T Float](side Side, uplo Uplo, transA Transpose, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	checkSide(side)
	checkUplo(uplo)
	checkTrans(transA)
	checkDiag(diag)
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("A", na, na, a, lda)
	checkMatrix("B", m, n, b, ldb)
	if m == 0 || n == 0 {
		return
	}
	start := trsmMetrics.Start()
	if alpha != 1 {
		for j := 0; j < n; j++ {
			col := b[j*ldb : j*ldb+m]
			if alpha == 0 {
				for i := range col {
					col[i] = 0
				}
			} else {
				Scal(m, alpha, col, 1)
			}
		}
		if alpha == 0 {
			// B was zeroed without any solve; no product flops were spent.
			trsmMetrics.Stop(start, 0)
			return
		}
	}
	trsmRec(side, uplo, transA, diag, m, n, a, lda, b, ldb)
	trsmMetrics.Stop(start, int64(m)*int64(n)*int64(na))
}

// trsmScaleRow divides the n entries of a matrix row (stride ld) by d.
func trsmScaleRow[T Float](n int, d T, row []T, ld int) {
	for j := 0; j < n; j++ {
		row[j*ld] /= d
	}
}

// trsmBlock is the diagonal-leaf cutoff of the recursive Trsm: triangles of
// this order and below run the substitution loops, everything above splits
// so the off-diagonal coupling goes through gemmAccum.
const trsmBlock = 32

// trsmRec recursively solves op(A)·X = B (Left) or X·op(A) = B (Right) in
// place with α already applied. The triangle is halved; the rectangular
// block coupling the two halves becomes one gemmAccum update.
func trsmRec[T Float](side Side, uplo Uplo, transA Transpose, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	na := m
	if side == Right {
		na = n
	}
	if na <= trsmBlock {
		trsmSmall(side, uplo, transA, diag, m, n, a, lda, b, ldb)
		return
	}
	n1 := na / 2
	n2 := na - n1
	a11 := a
	a22 := a[n1+n1*lda:]
	// Off-diagonal block of A: lower stores A21 (n2×n1) at a[n1:], upper
	// stores A12 (n1×n2) at a[n1*lda:].
	lowerEff := (uplo == Lower) == (transA == NoTrans)
	if side == Left {
		b1, b2 := b, b[n1:]
		if lowerEff {
			// [L11 0; L21 L22]·[X1; X2] = [B1; B2]: solve X1, update, solve X2.
			trsmRec(side, uplo, transA, diag, n1, n, a11, lda, b1, ldb)
			if uplo == Lower {
				gemmAccum(NoTrans, NoTrans, n2, n, n1, T(-1), a[n1:], lda, b1, ldb, b2, ldb)
			} else { // op(A)21 = A12ᵀ
				gemmAccum(Trans, NoTrans, n2, n, n1, T(-1), a[n1*lda:], lda, b1, ldb, b2, ldb)
			}
			trsmRec(side, uplo, transA, diag, n2, n, a22, lda, b2, ldb)
			return
		}
		// [U11 U12; 0 U22]·[X1; X2] = [B1; B2]: solve X2, update, solve X1.
		trsmRec(side, uplo, transA, diag, n2, n, a22, lda, b2, ldb)
		if uplo == Upper {
			gemmAccum(NoTrans, NoTrans, n1, n, n2, T(-1), a[n1*lda:], lda, b2, ldb, b1, ldb)
		} else { // op(A)12 = A21ᵀ
			gemmAccum(Trans, NoTrans, n1, n, n2, T(-1), a[n1:], lda, b2, ldb, b1, ldb)
		}
		trsmRec(side, uplo, transA, diag, n1, n, a11, lda, b1, ldb)
		return
	}
	// side == Right: split the columns of B.
	b1, b2 := b, b[n1*ldb:]
	if lowerEff {
		// [X1 X2]·[L11 0; L21 L22] = [B1 B2]: X2·L22 = B2 first, then
		// B1 -= X2·op(A)21 and X1·L11 = B1.
		trsmRec(side, uplo, transA, diag, m, n2, a22, lda, b2, ldb)
		if uplo == Lower {
			gemmAccum(NoTrans, NoTrans, m, n1, n2, T(-1), b2, ldb, a[n1:], lda, b1, ldb)
		} else { // op(A)21 = A12ᵀ
			gemmAccum(NoTrans, Trans, m, n1, n2, T(-1), b2, ldb, a[n1*lda:], lda, b1, ldb)
		}
		trsmRec(side, uplo, transA, diag, m, n1, a11, lda, b1, ldb)
		return
	}
	// [X1 X2]·[U11 U12; 0 U22] = [B1 B2]: X1·U11 = B1 first, then
	// B2 -= X1·op(A)12 and X2·U22 = B2.
	trsmRec(side, uplo, transA, diag, m, n1, a11, lda, b1, ldb)
	if uplo == Upper {
		gemmAccum(NoTrans, NoTrans, m, n2, n1, T(-1), b1, ldb, a[n1*lda:], lda, b2, ldb)
	} else { // op(A)12 = A21ᵀ
		gemmAccum(NoTrans, Trans, m, n2, n1, T(-1), b1, ldb, a[n1:], lda, b2, ldb)
	}
	trsmRec(side, uplo, transA, diag, m, n2, a22, lda, b2, ldb)
}

// trsmSmall runs the substitution loops on a diagonal leaf (α = 1).
func trsmSmall[T Float](side Side, uplo Uplo, transA Transpose, diag Diag, m, n int, a []T, lda int, b []T, ldb int) {
	unit := diag == Unit
	switch {
	case side == Left && transA == NoTrans && uplo == Lower:
		// Forward substitution: once row k of X is final, the rows below
		// take the rank-1 update B[k+1:, :] -= A[k+1:, k]·X[k, :], which
		// streams down contiguous columns of B.
		for k := 0; k < m; k++ {
			if !unit {
				trsmScaleRow(n, a[k+k*lda], b[k:], ldb)
			}
			ger(m-k-1, n, -1, a[k+1+k*lda:], 1, b[k:], ldb, b[k+1:], ldb)
		}
	case side == Left && transA == NoTrans && uplo == Upper:
		for k := m - 1; k >= 0; k-- {
			if !unit {
				trsmScaleRow(n, a[k+k*lda], b[k:], ldb)
			}
			ger(k, n, -1, a[k*lda:], 1, b[k:], ldb, b, ldb)
		}
	case side == Left && transA == Trans:
		// Solve column-by-column with Trsv (Aᵀ solves use dot products over
		// contiguous columns of A).
		for j := 0; j < n; j++ {
			Trsv(uplo, Trans, diag, m, a, lda, b[j*ldb:j*ldb+m], 1)
		}
	case side == Right && transA == NoTrans && uplo == Lower:
		// X·A = B: process columns of X right-to-left.
		for k := n - 1; k >= 0; k-- {
			akk := a[k+k*lda]
			bk := b[k*ldb:]
			if !unit {
				for i := 0; i < m; i++ {
					bk[i] /= akk
				}
			}
			// B[:,j] -= A[k,j]·X[:,k] for j < k (A lower: A[k,j] stored).
			for j := 0; j < k; j++ {
				akj := a[k+j*lda]
				if akj == 0 {
					continue
				}
				bj := b[j*ldb:]
				for i := 0; i < m; i++ {
					bj[i] -= akj * bk[i]
				}
			}
		}
	case side == Right && transA == NoTrans && uplo == Upper:
		for k := 0; k < n; k++ {
			akk := a[k+k*lda]
			bk := b[k*ldb:]
			if !unit {
				for i := 0; i < m; i++ {
					bk[i] /= akk
				}
			}
			for j := k + 1; j < n; j++ {
				akj := a[k+j*lda]
				if akj == 0 {
					continue
				}
				bj := b[j*ldb:]
				for i := 0; i < m; i++ {
					bj[i] -= akj * bk[i]
				}
			}
		}
	case side == Right && transA == Trans && uplo == Lower:
		// X·Aᵀ = B with A lower: Aᵀ upper, columns left-to-right.
		for k := 0; k < n; k++ {
			akk := a[k+k*lda]
			bk := b[k*ldb:]
			if !unit {
				for i := 0; i < m; i++ {
					bk[i] /= akk
				}
			}
			// (Aᵀ)[k,j] = A[j,k] for j > k.
			acol := a[k*lda:]
			for j := k + 1; j < n; j++ {
				ajk := acol[j]
				if ajk == 0 {
					continue
				}
				bj := b[j*ldb:]
				for i := 0; i < m; i++ {
					bj[i] -= ajk * bk[i]
				}
			}
		}
	default: // side == Right && transA == Trans && uplo == Upper
		for k := n - 1; k >= 0; k-- {
			akk := a[k+k*lda]
			bk := b[k*ldb:]
			if !unit {
				for i := 0; i < m; i++ {
					bk[i] /= akk
				}
			}
			acol := a[k*lda:]
			for j := 0; j < k; j++ {
				ajk := acol[j]
				if ajk == 0 {
					continue
				}
				bj := b[j*ldb:]
				for i := 0; i < m; i++ {
					bj[i] -= ajk * bk[i]
				}
			}
		}
	}
}
