package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"exadla"
	"exadla/internal/trace"
)

// The dist workload is a closed loop: one coordinator (ServeDist on
// loopback) per operation, distWorkers in-process JoinDist workers, default
// DistConfig, alternating Cholesky and LU without pivoting at distN.
const (
	distN       = 768
	distWorkers = 2
	distPool    = 2
)

// distProblem is one operator with the random probe vector its factor is
// checked with.
type distProblem struct {
	op   string
	a, v []float64
	am   *exadla.Matrix
}

// distStats is what a traced operation records for the layer metrics.
type distStats struct {
	joinMs float64
	stats  exadla.DistStats
	clus   trace.ClusterStats
}

// runDist makes one distributed factorization, timed from ServeDist to the
// factor in hand; workers are joined and the check made after the clock
// stops. A traced call also times worker registration and analyses the
// merged cluster trace.
func runDist(p *distProblem, traced bool, t *tally) (float64, *distStats) {
	start := time.Now()
	job, err := exadla.ServeDist("127.0.0.1:0", p.am, exadla.DistConfig{Op: p.op})
	if err != nil {
		t.record(err, false)
		return float64(time.Since(start)) / 1e6, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, distWorkers)
	for w := 0; w < distWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = exadla.JoinDist(job.Addr(), exadla.DistChaos{})
		}(w)
	}
	var ds *distStats
	joined, ran := make(chan float64, 1), make(chan struct{})
	if traced {
		ds = &distStats{}
		go func() {
			defer func() { joined <- float64(time.Since(start)) / 1e6 }()
			for job.Stats().WorkersJoined < distWorkers {
				select {
				case <-ran:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
		}()
	}
	f, err := job.Run()
	ms := float64(time.Since(start)) / 1e6
	close(ran)
	wg.Wait()
	for _, werr := range errs {
		if err == nil && werr != nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	t.record(err, err == nil && factorResidual(distN, p.a, f.Data(), p.op == exadla.DistLUNoPiv, p.v) <= residualLimit)
	if traced {
		ds.joinMs = <-joined
		ds.stats = job.Stats()
		var buf bytes.Buffer
		var l *trace.Log
		cerr := job.WriteClusterEvents(&buf)
		if cerr == nil {
			l, cerr = trace.ReadJSON(&buf)
		}
		if cerr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: dist cluster trace: %v\n", cerr)
		} else {
			ds.clus = l.AnalyzeCluster()
		}
	}
	return ms, ds
}

func distProblems(seed int64) []*distProblem {
	r := newRNG(seed, streamDist)
	var ps []*distProblem
	for i := 0; i < distPool; i++ {
		for _, op := range []string{exadla.DistCholesky, exadla.DistLUNoPiv} {
			p := &distProblem{op: op}
			if op == exadla.DistCholesky {
				p.a = r.spd(distN)
			} else {
				p.a = r.diagDominant(distN)
			}
			p.v = r.general(distN, 1)
			p.am = exadla.FromSlice(distN, distN, clone(p.a))
			ps = append(ps, p)
		}
	}
	return ps
}

var distMetric = map[string]string{exadla.DistCholesky: "chol_ms", exadla.DistLUNoPiv: "lu_ms"}

// distLoop alternates Cholesky and LU until seconds pass (at least one
// round), calling between after each round when it is not nil. In a traced
// run every operation runs once traced and once not.
func distLoop(e *env, seconds time.Duration, ps []*distProblem, between func(), o *outcome) (plain, traced map[string][]float64, rounds []float64, stats []*distStats) {
	plain, traced = map[string][]float64{}, map[string][]float64{}
	passes := 1
	if e.trace {
		passes = 2
	}
	deadline := time.Now().Add(seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var roundMs float64
		for k := 0; k < 2; k++ {
			p := ps[(round%distPool)*2+k]
			name := distMetric[p.op]
			for pass := 0; pass < passes; pass++ {
				tr := passes == 2 && (pass+round)%2 == 1 // alternate which half goes first
				ms, ds := runDist(p, tr, &o.tally)
				if tr {
					traced[name] = append(traced[name], ms)
					stats = append(stats, ds)
				} else {
					plain[name] = append(plain[name], ms)
					roundMs += ms
				}
			}
		}
		rounds = append(rounds, roundMs)
		if between != nil {
			between()
		}
	}
	return plain, traced, rounds, stats
}

func distWorkload(e *env) (*outcome, error) {
	o := newOutcome()
	ps := distProblems(e.seed)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		runDist(ps[0], false, &o.tally)
		runDist(ps[1], false, &o.tally)
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	fill := newQRFiller(e.seed, lsM, lsN, []exadla.Option{exadla.WithWorkers(e.nproc)})
	plain, traced, rounds, stats := distLoop(e, e.seconds, ps, func() { fill.call(&o.tally) }, o)
	o.latency("chol_ms", plain["chol_ms"])
	o.latency("lu_ms", plain["lu_ms"])
	o.latency("p50_ms", rounds)
	o.e2e["tail_ms"] = tailValue(rounds)
	o.notef("p50_ms and tail_ms are the closed loop's round time (one Cholesky and one LU)")
	if e.trace {
		distLayers(stats, o)
		o.layer["trace_overhead_pct"] = overheadPct(plain, traced)
	}
	fill.report(o, "once per round, outside the round time")
	return o, nil
}
