package exadla_test

import (
	"math/rand"
	"runtime"
	"testing"

	"exadla"
)

// TestContextSolveHeapBounded: a long-lived Context must not retain the
// tiles of finished solves. The runtime's dependence frontier used to keep
// an entry for every handle ever submitted, and through it every finished
// task's closure and tiles, so the live heap grew by one problem per call.
// After 40 calls it must exceed the heap after 4 calls by less than one
// call's tiles.
func TestContextSolveHeapBounded(t *testing.T) {
	const n = 256
	ctx := newCtx(t, exadla.WithWorkers(2))
	rng := rand.New(rand.NewSource(13))
	a := exadla.RandomGeneral(rng, n, n)
	b := exadla.RandomGeneral(rng, n, 1)
	liveAfter := func(calls int) uint64 {
		for i := 0; i < calls; i++ {
			if _, err := ctx.Solve(a, b); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveAfter(4)
	grown := liveAfter(36)
	const oneCall = n * (n + 1) * 8 // the A and B tiles of one Solve
	t.Logf("live heap after 4 solves %d B, after 40 %d B", base, grown)
	if grown > base && grown-base >= oneCall {
		t.Errorf("live heap grew by %d B over 36 more solves; one call's tiles are %d B", grown-base, oneCall)
	}
}
