package main

import (
	"fmt"
	"runtime"
	"time"

	"exadla"
	"exadla/internal/batch"
	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// The traced run prints these per-layer metrics. Every timer and span sits
// in this file, around public functions of each layer; nothing here runs in
// an untraced run. Layers a workload exercises itself (serve, dist) take
// their numbers from the workload's own traced traffic; the rest come from
// short probes at the factor sizes.
var (
	coreKernels = []string{"potrf", "trsm", "syrk", "gemm", "getrf", "gessm", "tstrf", "ssssm", "geqrt", "unmqr", "tsqrt", "tsmqr"}
	ftKernels   = []string{"verify", "record", "commit"}

	layerMetrics = buildLayerMetrics()
)

func buildLayerMetrics() []metricDef {
	defs := []metricDef{
		{"blas.gemm_gflops", "GF/s"}, {"blas.trsm_gflops", "GF/s"}, {"blas.syrk_gflops", "GF/s"},
		{"lapack.potrf_ms", "ms"}, {"lapack.getrf_ms", "ms"}, {"lapack.geqrf_ms", "ms"},
		{"core.chol_over_serial", "ratio"}, {"core.lu_over_serial", "ratio"}, {"core.qr_over_serial", "ratio"},
	}
	for _, k := range coreKernels {
		defs = append(defs, metricDef{"core.kernel_ms." + k, "ms"})
	}
	for _, f := range []string{"chol", "lu", "qr"} {
		defs = append(defs, metricDef{"core.critical_path_ms." + f, "ms"}, metricDef{"core.dag_speedup_bound." + f, "ratio"})
	}
	defs = append(defs,
		metricDef{"sched.queue_wait_ms", "ms"}, metricDef{"sched.utilization", "frac"}, metricDef{"sched.task_overhead_us", "us"},
		metricDef{"tile.to_tiles_ms.n1024", "ms"}, metricDef{"tile.to_tiles_ms.n256", "ms"},
		metricDef{"tile.from_tiles_ms.n1024", "ms"}, metricDef{"tile.from_tiles_ms.n256", "ms"},
		metricDef{"ft.chol_overhead_pct", "%"}, metricDef{"ft.lu_overhead_pct", "%"})
	for _, k := range ftKernels {
		defs = append(defs, metricDef{"ft.kernel_ms." + k, "ms"})
	}
	defs = append(defs,
		metricDef{"batch.potrf_us_per_problem", "us"}, metricDef{"batch.getrf_us_per_problem", "us"},
		metricDef{"serve.submit_us", "us"})
	for _, c := range classNames {
		for _, s := range []string{"p50", "tail"} {
			defs = append(defs, metricDef{"serve.queue_wait_ms." + c + "." + s, "ms"}, metricDef{"serve.run_ms." + c + "." + s, "ms"})
		}
	}
	defs = append(defs,
		metricDef{"serve.batch_size_mean", "count"}, metricDef{"serve.cache_hit_frac", "frac"}, metricDef{"serve.shed_frac", "frac"},
		metricDef{"serve.gen_lag_ms", "ms"}, metricDef{"serve.heap_live_mb", "MB"},
		metricDef{"dist.wire_mb", "MB"}, metricDef{"dist.leases_per_op", "count"}, metricDef{"dist.tasks_local_frac", "frac"},
		metricDef{"dist.rpc_retries", "count"}, metricDef{"dist.fetch_ms", "ms"}, metricDef{"dist.compute_ms", "ms"},
		metricDef{"dist.commit_ms", "ms"}, metricDef{"dist.idle_frac", "frac"}, metricDef{"dist.join_ms", "ms"},
		metricDef{"trace_overhead_pct", "%"})
	return defs
}

const (
	probeReps  = 3   // repetitions of each n=1024 probe call
	blasReps   = 100 // calls of each nb³ BLAS kernel
	tileReps   = 10
	batchReps  = 20
	batchCount = 256 // problems of batchN per batched call
	batchN     = 16
	noopTasks  = 4096 // fan-out width of the scheduler overhead probe
	serveProbe = 5 * time.Second
)

// msSince is the wall time since start in milliseconds.
func msSince(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }

// timed runs fn once per rep after prep (off the clock) and returns the
// median wall time in ms.
func timed(reps int, prep, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		prep()
		start := time.Now()
		fn()
		xs[i] = msSince(start)
	}
	return median(xs)
}

// probeLayers fills o.layer with every per-layer metric the workload's own
// traced traffic did not already give.
func probeLayers(e *env, o *outcome) error {
	r := newRNG(e.seed, streamLayers)
	probeBLAS(r, o)
	if err := probeCore(e, r, o); err != nil {
		return err
	}
	probeSched(e, o)
	probeTile(r, o)
	if err := probeFT(e, r, o); err != nil {
		return err
	}
	if err := probeBatch(e, r, o); err != nil {
		return err
	}
	if _, ok := o.layer["serve.submit_us"]; !ok {
		probe := newOutcome()
		run, err := runServe(e, serveProbe, false, probe)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		serveLayers(run, o)
		if err := run.srv.Close(); err != nil {
			return err
		}
		o.tally.add(probe.tally)
	}
	if _, ok := o.layer["dist.join_ms"]; !ok {
		probe := newOutcome()
		_, _, _, stats := distLoop(e, 0, distProblems(e.seed), nil, probe)
		distLayers(stats, o)
		o.tally.add(probe.tally)
	}
	return nil
}

// probeBLAS times single-goroutine nb×nb×nb calls of the three kernels the
// tile Cholesky is made of, each on fresh operands.
func probeBLAS(r *rng, o *outcome) {
	nb := exadla.DefaultTileSize
	a, b, c0, l := r.general(nb, nb), r.general(nb, nb), r.general(nb, nb), r.spd(nb)
	if err := lapack.Potrf(blas.Lower, nb, l, nb); err != nil {
		panic(err) // r.spd is positive definite by construction
	}
	c := make([]float64, nb*nb)
	reset := func() { copy(c, c0) }
	f := float64(nb) * float64(nb) * float64(nb)
	gemm := timed(blasReps, reset, func() {
		blas.Gemm(blas.NoTrans, blas.Trans, nb, nb, nb, -1, a, nb, b, nb, 1, c, nb)
	})
	trsm := timed(blasReps, reset, func() {
		blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit, nb, nb, 1, l, nb, c, nb)
	})
	syrk := timed(blasReps, reset, func() {
		blas.Syrk(blas.Lower, blas.NoTrans, nb, nb, -1, a, nb, 1, c, nb)
	})
	o.layer["blas.gemm_gflops"] = 2 * f / gemm / 1e6
	o.layer["blas.trsm_gflops"] = f / trsm / 1e6
	o.layer["blas.syrk_gflops"] = f / syrk / 1e6
}

// probeCore times each factorization serially (the plain LAPACK-style
// single-thread baseline) and tiled on an nproc-worker runtime whose spans
// a trace.Log records, and derives the kernel, DAG and scheduler numbers
// from those spans.
func probeCore(e *env, r *rng, o *outcome) error {
	log := trace.NewLog()
	rt := sched.New(e.nproc, sched.WithTracer(log))
	defer rt.Shutdown()
	n := factorN
	type fac struct {
		name, serialMetric string
		m, n               int
		a                  []float64
		serial             func([]float64) error
		tiled              func(*tile.Matrix[float64]) error
	}
	facs := []fac{
		{"chol", "lapack.potrf_ms", n, n, r.spd(n),
			func(a []float64) error { return lapack.Potrf(blas.Lower, n, a, n) },
			func(t *tile.Matrix[float64]) error { return core.Cholesky(rt, t) }},
		{"lu", "lapack.getrf_ms", n, n, r.general(n, n),
			func(a []float64) error { return lapack.Getrf(n, n, a, n, make([]int, n)) },
			func(t *tile.Matrix[float64]) error { _, err := core.LU(rt, t); return err }},
		{"qr", "lapack.geqrf_ms", lsM, lsN, r.general(lsM, lsN),
			func(a []float64) error { lapack.Geqrf(lsM, lsN, a, lsM, make([]float64, lsN)); return nil },
			func(t *tile.Matrix[float64]) error { core.QR(rt, t); return nil }},
	}
	v := r.general(n, 1)
	serial, tiled := map[string][]float64{}, map[string][]float64{}
	crit, bound := map[string][]float64{}, map[string][]float64{}
	kernel := map[string][]float64{}
	var waits, utils []float64
	for rep := 0; rep < probeReps; rep++ {
		for _, f := range facs {
			buf := clone(f.a)
			start := time.Now()
			err := f.serial(buf)
			serial[f.name] = append(serial[f.name], msSince(start))
			o.record(err, f.name != "chol" || err == nil && factorResidual(n, f.a, buf, false, v) <= residualLimit)

			t := tile.FromColMajor(f.m, f.n, f.a, f.m, exadla.DefaultTileSize)
			log.Reset()
			start = time.Now()
			err = f.tiled(t)
			tiled[f.name] = append(tiled[f.name], msSince(start))
			o.record(err, f.name != "chol" || err == nil && factorResidual(n, f.a, t.ToColMajor(), false, v) <= residualLimit)

			for _, ev := range log.Events() {
				if ev.Attempt > 0 && ev.Phase == "" {
					kernel[ev.Name] = append(kernel[ev.Name], float64(ev.End-ev.Start)/1e6)
					waits = append(waits, float64(ev.QueueWait())/1e6)
				}
			}
			utils = append(utils, log.Analyze().Utilization)
			dag := log.AnalyzeDAG()
			crit[f.name] = append(crit[f.name], dag.TInf*1e3)
			bound[f.name] = append(bound[f.name], dag.T1/dag.TInf)
		}
	}
	for _, f := range facs {
		o.layer[f.serialMetric] = median(serial[f.name])
		o.layer["core."+f.name+"_over_serial"] = median(tiled[f.name]) / median(serial[f.name])
		o.layer["core.critical_path_ms."+f.name] = median(crit[f.name])
		o.layer["core.dag_speedup_bound."+f.name] = median(bound[f.name])
	}
	for _, k := range coreKernels {
		if len(kernel[k]) == 0 {
			return fmt.Errorf("core probe: no %s spans", k)
		}
		o.layer["core.kernel_ms."+k] = median(kernel[k])
	}
	o.layer["sched.queue_wait_ms"] = median(waits)
	o.layer["sched.utilization"] = mean(utils)
	return nil
}

// probeSched times the submit-and-wait of a fan-out of no-op tasks: one
// writer, then noopTasks readers of its handle.
func probeSched(e *env, o *outcome) {
	rt := sched.New(e.nproc)
	defer rt.Shutdown()
	type h struct{}
	root := &h{}
	ms := timed(5, func() {}, func() {
		rt.Submit(sched.Task{Name: "root", Writes: []sched.Handle{root}, Fn: func() {}})
		for i := 0; i < noopTasks; i++ {
			rt.Submit(sched.Task{Name: "leaf", Reads: []sched.Handle{root}, Fn: func() {}})
		}
		rt.Wait()
	})
	o.layer["sched.task_overhead_us"] = ms * 1e3 / (noopTasks + 1)
}

// probeTile times the column-major ↔ tile conversions every solve pays.
func probeTile(r *rng, o *outcome) {
	for _, n := range []int{1024, 256} {
		a := r.general(n, n)
		var t *tile.Matrix[float64]
		o.layer[fmt.Sprintf("tile.to_tiles_ms.n%d", n)] = timed(tileReps, func() {}, func() {
			t = tile.FromColMajor(n, n, a, n, exadla.DefaultTileSize)
		})
		o.layer[fmt.Sprintf("tile.from_tiles_ms.n%d", n)] = timed(tileReps, func() {}, func() {
			a = t.ToColMajor()
		})
	}
}

// probeFT runs the factor sizes through a plain and a fault-tolerant
// Context, both tracing, interleaved: the overhead of verification and
// erasure parity, and the self time of the ft tasks.
func probeFT(e *env, r *rng, o *outcome) error {
	plain := exadla.NewContext(exadla.WithWorkers(e.nproc), exadla.WithTracing())
	defer plain.Close()
	ftc := exadla.NewContext(exadla.WithWorkers(e.nproc), exadla.WithTracing(), exadla.WithFaultTolerance(), exadla.WithErasure())
	defer ftc.Close()
	ops := []*factorOp{cholOp(spdProblems(r, factorN, 1)), luOp(generalProblems(r, factorN, 1))}
	base, prot := map[string][]float64{}, map[string][]float64{}
	kernel := map[string][]float64{}
	for rep := 0; rep < probeReps; rep++ {
		for _, op := range ops {
			plain.ResetTrace()
			base[op.metric] = append(base[op.metric], op.run(plain, op.inputs[0], &o.tally))
			ftc.ResetTrace()
			prot[op.metric] = append(prot[op.metric], op.run(ftc, op.inputs[0], &o.tally))
			for _, ev := range ftc.TraceLog().Events() {
				if ev.Attempt > 0 && ev.Phase == "" {
					kernel[ev.Name] = append(kernel[ev.Name], float64(ev.End-ev.Start)/1e6)
				}
			}
		}
	}
	o.layer["ft.chol_overhead_pct"] = 100 * (median(prot["chol_ms"])/median(base["chol_ms"]) - 1)
	o.layer["ft.lu_overhead_pct"] = 100 * (median(prot["lu_ms"])/median(base["lu_ms"]) - 1)
	for _, k := range ftKernels {
		if len(kernel[k]) == 0 {
			return fmt.Errorf("ft probe: no %s spans", k)
		}
		o.layer["ft.kernel_ms."+k] = median(kernel[k])
	}
	return nil
}

// probeBatch times the batched small-problem kernels the serve fast path
// uses, per problem.
func probeBatch(e *env, r *rng, o *outcome) error {
	rt := sched.New(e.nproc)
	defer rt.Shutdown()
	spd, gen := make([][]float64, batchCount), make([][]float64, batchCount)
	for i := range spd {
		spd[i], gen[i] = r.spd(batchN), r.general(batchN, batchN)
	}
	mats := make([][]float64, batchCount)
	fresh := func(src [][]float64) func() {
		return func() {
			for i := range mats {
				mats[i] = clone(src[i])
			}
		}
	}
	var errs []error
	potrf := timed(batchReps, fresh(spd), func() { errs = batch.Potrf(rt, batchN, mats, batch.Options{}) })
	getrf := timed(batchReps, fresh(gen), func() { _, errs = batch.Getrf(rt, batchN, mats, batch.Options{}) })
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("batch probe: %w", err)
		}
	}
	o.layer["batch.potrf_us_per_problem"] = potrf * 1e3 / batchCount
	o.layer["batch.getrf_us_per_problem"] = getrf * 1e3 / batchCount
	return nil
}

// serveLayers derives the serve layer's numbers from a traced serve run:
// per-class queue wait and run time from each job's Status, and the
// server's own counters.
func serveLayers(run *serveRun, o *outcome) {
	o.layer["serve.submit_us"] = median(run.submitUs)
	wait, exec := make([]float64, len(run.jobs)), make([]float64, len(run.jobs))
	for i, st := range run.status {
		wait[i], exec[i] = st.QueueWaitMs, st.RunMs
	}
	for c, name := range classNames {
		w, x := run.byClass(c, wait), run.byClass(c, exec)
		if len(w) == 0 { // possible only in the short probe schedule
			w, x = []float64{0}, []float64{0}
			o.notef("serve probe had no %s jobs; their queue and run times read 0", name)
		}
		o.layer["serve.queue_wait_ms."+name+".p50"] = median(w)
		o.layer["serve.queue_wait_ms."+name+".tail"] = tailValue(w)
		o.layer["serve.run_ms."+name+".p50"] = median(x)
		o.layer["serve.run_ms."+name+".tail"] = tailValue(x)
	}
	m := run.srv.Metrics()
	o.layer["serve.batch_size_mean"] = m.Histograms["serve.batch.size"].Mean
	hits, misses := float64(m.Counters["serve.cache.hits"]), float64(m.Counters["serve.cache.misses"])
	o.layer["serve.cache_hit_frac"] = hits / (hits + misses)
	o.layer["serve.shed_frac"] = float64(m.Counters["serve.shed_total"]) / float64(m.Counters["serve.submitted"])
	o.layer["serve.gen_lag_ms"] = tailValue(run.lagMs)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.layer["serve.heap_live_mb"] = float64(ms.HeapInuse) / (1 << 20)
}

// distLayers averages the per-operation dist numbers over the traced
// operations: wire traffic, leases, local fallback and retries from
// DistJob.Stats, and the fetch/compute/commit/idle split of the merged
// cluster trace.
func distLayers(stats []*distStats, o *outcome) {
	var wire, leases, local, retries, fetch, compute, commit, idle, join []float64
	for _, s := range stats {
		if s == nil {
			continue
		}
		st := s.stats
		wire = append(wire, float64(st.BytesFetched+st.BytesCommitted)/(1<<20))
		leases = append(leases, float64(st.LeasesGranted))
		local = append(local, float64(st.TasksLocal)/float64(max(st.TasksCompleted, 1)))
		retries = append(retries, float64(st.RPCRetries))
		var f, c, m, i, span float64
		for _, p := range s.clus.Procs {
			f, c, m, i = f+p.Fetch, c+p.Compute, m+p.Commit, i+p.Idle
			span += s.clus.Span
		}
		fetch, compute, commit = append(fetch, f*1e3), append(compute, c*1e3), append(commit, m*1e3)
		idle = append(idle, i/max(span, 1e-9))
		join = append(join, s.joinMs)
	}
	if len(join) == 0 {
		return // every traced operation failed; the tally already says so
	}
	o.layer["dist.wire_mb"] = median(wire)
	o.layer["dist.leases_per_op"] = median(leases)
	o.layer["dist.tasks_local_frac"] = median(local)
	o.layer["dist.rpc_retries"] = mean(retries)
	o.layer["dist.fetch_ms"] = median(fetch)
	o.layer["dist.compute_ms"] = median(compute)
	o.layer["dist.commit_ms"] = median(commit)
	o.layer["dist.idle_frac"] = median(idle)
	o.layer["dist.join_ms"] = median(join)
}
