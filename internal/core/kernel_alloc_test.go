package core

import (
	"fmt"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
)

// TestTileKernelsZeroAllocSteadyState asserts that, once the scratch pool
// is warm, the update tile kernels allocate nothing per call: LU's gessm
// and ssssm and QR's unmqr and tsmqr draw their workspace from the shared
// blas scratch pool.
func TestTileKernelsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally bypasses caching under the race detector")
	}
	const nb = 96
	rng := rand.New(rand.NewSource(31))
	diag := matgen.Dense[float64](rng, nb, nb)
	for j := 0; j < nb; j++ {
		diag[j+j*nb] += 8
	}
	below := matgen.Dense[float64](rng, nb, nb)
	linv, piv, err := tstrf(nb, nb, diag, nb, below, nb)
	if err != nil {
		t.Fatal(err)
	}
	c1 := matgen.Dense[float64](rng, nb, nb)
	c2 := matgen.Dense[float64](rng, nb, nb)
	dpiv := make([]int, nb)
	if err := lapack.Getrf(nb, nb, diag, nb, dpiv); err != nil {
		t.Fatal(err)
	}

	v := matgen.Dense[float64](rng, nb, nb)
	tq := make([]float64, nb*nb)
	geqrt(nb, nb, v, nb, tq, nb)
	r := append([]float64(nil), v...)
	v2 := matgen.Dense[float64](rng, nb, nb)
	t2 := make([]float64, nb*nb)
	tsqrt(nb, nb, r, nb, v2, nb, t2, nb)

	cases := []struct {
		name string
		run  func()
	}{
		{"gessm", func() { gessm(nb, nb, nb, dpiv, diag, nb, c1, nb) }},
		{"ssssm", func() { ssssm(nb, nb, nb, linv, piv, below, nb, c1, nb, c2, nb) }},
		{"unmqr", func() { unmqr(nb, nb, nb, v, nb, tq, nb, c1, nb) }},
		{"tsmqr", func() { tsmqr(blas.Trans, nb, nb, nb, v2, nb, t2, nb, c1, nb, c2, nb) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				tc.run() // warm the pool
			}
			if avg := testing.AllocsPerRun(10, tc.run); avg != 0 {
				t.Errorf("%s allocates %.1f objects per call in steady state", tc.name, avg)
			}
		})
	}
}

// BenchmarkTileLUKernels times the tile LU kernels — getrf, gessm, tstrf
// and ssssm — on nb×nb tiles.
func BenchmarkTileLUKernels(b *testing.B) {
	for _, nb := range []int{64, 96} {
		rng := rand.New(rand.NewSource(32))
		diag := matgen.Dense[float64](rng, nb, nb)
		below := matgen.Dense[float64](rng, nb, nb)
		u, a2 := make([]float64, nb*nb), make([]float64, nb*nb)
		piv := make([]int, nb)
		b.Run(fmt.Sprintf("getrf/nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(u, diag)
				_ = lapack.Getrf(nb, nb, u, nb, piv)
			}
		})
		c1 := matgen.Dense[float64](rng, nb, nb)
		c2 := matgen.Dense[float64](rng, nb, nb)
		b.Run(fmt.Sprintf("gessm/nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gessm(nb, nb, nb, piv, u, nb, c1, nb)
			}
		})
		b.Run(fmt.Sprintf("tstrf/nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(u, diag)
				copy(a2, below)
				tstrf(nb, nb, u, nb, a2, nb)
			}
		})
		linv, spiv, _ := tstrf(nb, nb, u, nb, a2, nb)
		b.Run(fmt.Sprintf("ssssm/nb=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ssssm(nb, nb, nb, linv, spiv, a2, nb, c1, nb, c2, nb)
			}
		})
	}
}
