package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 999)
	v, err := percentile(xs, 99)
	if err != nil || v != 989 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 989 with 10 beyond", v, err)
	}
	if p, v, ok := tail(xs[:100]); !ok || p != 90 || v != 89 {
		t.Fatalf("tail of 100 samples = p%v %v %v; want p90 89", p, v, ok)
	}
	if _, _, ok := tail(xs[:19]); ok {
		t.Fatal("19 samples have no percentile with 10 beyond")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a, b := schedule(7, 500, serveRate), schedule(7, 500, serveRate)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 500, serveRate)) {
		t.Fatal("two seeds gave one schedule")
	}
	in := newServeInputs(7)
	fps := []string{"h0", "h1", "h2", "h3"}
	ja, jb := materialize(7, a, in, fps), materialize(7, b, newServeInputs(7), fps)
	for i := range ja {
		if !reflect.DeepEqual(ja[i].spec, jb[i].spec) || !reflect.DeepEqual(ja[i].b, jb[i].b) {
			t.Fatalf("job %d: one seed gave two inputs", i)
		}
	}
}

// TestClassMix checks every class's share of a full run's schedule (the
// default 20 s) against its stated share, to within two points.
func TestClassMix(t *testing.T) {
	count := int(serveRate * 25)
	for seed := int64(1); seed <= 20; seed++ {
		var n [numClasses]int
		arr := schedule(seed, count, serveRate)
		for _, a := range arr {
			n[a.class]++
		}
		for c := range n {
			if got := float64(n[c]) / float64(count); got < classShares[c]-0.02 || got > classShares[c]+0.02 {
				t.Errorf("seed %d: %s share %.3f, want %.2f ± 0.02", seed, classNames[c], got, classShares[c])
			}
		}
		if end := arr[count-1].at; end < 20*time.Second || end > 30*time.Second {
			t.Errorf("seed %d: schedule ends at %v, want about 25s", seed, end)
		}
	}
}

func TestCorruptedSolutionFails(t *testing.T) {
	r := newRNG(3, streamFactor)
	n := 64
	a, x := r.spd(n), r.general(n, 1)
	b := matVec(n, n, a, x)
	var tl tally
	tl.record(nil, solvedOK(n, n, a, x, b))
	if tl.failed != 0 {
		t.Fatalf("exact solution failed its check (residual %g)", solveResidual(n, n, a, x, b))
	}
	bad := clone(x)
	bad[n/2] += 1e-6
	tl.record(nil, solvedOK(n, n, a, bad, b))
	nan := clone(x)
	nan[0] = math.NaN()
	tl.record(nil, solvedOK(n, n, a, nan, b))
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("tally %+v; want 3 attempted, 2 failed", tl)
	}
}

// TestFactorProbe checks the O(n²) factor probe on exact Cholesky and
// no-pivot LU factors built by hand, and that it rejects a perturbed one.
func TestFactorProbe(t *testing.T) {
	r := newRNG(4, streamDist)
	n := 48
	v := r.general(n, 1)
	for _, lu := range []bool{false, true} {
		var a []float64
		if lu {
			a = r.diagDominant(n)
		} else {
			a = r.spd(n)
		}
		f := clone(a)
		if lu {
			for k := 0; k < n; k++ { // right-looking elimination without pivoting
				for i := k + 1; i < n; i++ {
					f[i+k*n] /= f[k+k*n]
					for j := k + 1; j < n; j++ {
						f[i+j*n] -= f[i+k*n] * f[k+j*n]
					}
				}
			}
		} else {
			for j := 0; j < n; j++ { // left-looking Cholesky, lower triangle
				for k := 0; k < j; k++ {
					for i := j; i < n; i++ {
						f[i+j*n] -= f[i+k*n] * f[j+k*n]
					}
				}
				d := math.Sqrt(f[j+j*n])
				for i := j; i < n; i++ {
					f[i+j*n] /= d
				}
			}
		}
		if res := factorResidual(n, a, f, lu, v); res > residualLimit {
			t.Fatalf("lu=%v: exact factor has residual %g", lu, res)
		}
		f[n-1] += 1e-6 // an entry of L's first column
		if res := factorResidual(n, a, f, lu, v); res <= residualLimit {
			t.Fatalf("lu=%v: perturbed factor passed with residual %g", lu, res)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the names the program prints and
// the names BENCHMARK.json declares in step.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", layerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
}
