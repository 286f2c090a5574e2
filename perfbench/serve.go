package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"exadla"
)

// The serve workload is an open loop of Poisson arrivals into an in-process
// exadla.Serve with default lanes. The job count is rate × seconds, fixed by
// the arguments rather than by how fast the server drains: the server keeps
// every finished job, so a wall-clock-bounded count would make rss_peak_mb
// depend on speed.
const (
	serveRate      = 80.0 // jobs per second, about 4% of the measured saturation point (README)
	serveSetupReps = 5

	// serve has no QR op, so qr_ms comes from small least-squares calls
	// made in the schedule's own idle gaps: where the next arrival is at
	// least fillGap after the previous one, one call starts fillDelay into
	// the gap and ends well before the next job is due. The gaps are
	// spread over the whole run and fixed by the seed.
	fillGap, fillDelay = 40 * time.Millisecond, 15 * time.Millisecond
	fillM, fillN       = 256, 128
	hotN, hotOps       = 192, 4
	coldN              = 256
	coldPool           = 64 // > cache capacity (32), so a cold operator is always evicted before reuse
	bigN               = 512
	bigPool            = 16 // reused only after ≥ 60 other inserts, so always a miss
	serveTenant        = "bench"
)

// Job classes and their shares of the schedule.
const (
	classTiny = iota // SPD solve, n ∈ tinyNs, batched fast path
	classWarm        // SPD solve against a hot operator by fingerprint (cache read)
	classCold        // LU solve at coldN, a cache miss that inserts and evicts
	classBig         // SPD factorize at bigN, a long job that holds a lane
	numClasses
)

var (
	classNames  = [numClasses]string{"tiny", "warm", "cold", "big"}
	classShares = [numClasses]float64{0.70, 0.20, 0.08, 0.02}
	tinyNs      = []int{8, 12, 16, 24}
)

// arrival is one scheduled job: when it is due and its class. pick chooses
// the order of a tiny job and the hot operator of a warm one; cold and big
// jobs take their pools' operators in schedule order.
type arrival struct {
	at    time.Duration
	class int
	pick  int
}

// schedule draws count Poisson arrivals at rate per second.
func schedule(seed int64, count int, rate float64) []arrival {
	r := newRNG(seed, streamServeSchedule)
	out := make([]arrival, count)
	var t float64
	for i := range out {
		t += r.exp() / rate
		u, c := r.unit(), 0
		for c < numClasses-1 && u >= classShares[c] {
			u -= classShares[c]
			c++
		}
		out[i] = arrival{at: time.Duration(t * float64(time.Second)), class: c, pick: int(r.next() % 1024)}
	}
	return out
}

// serveJob is one submission with its own copies of A and B, as the HTTP
// decoder would give it, and the pristine operands its answer is checked
// against.
type serveJob struct {
	arrival
	spec exadla.ServeJob
	n    int
	a, b []float64 // pristine; a is nil for factorize-only big jobs' checks
}

// serveInputs holds the operators shared across jobs.
type serveInputs struct {
	hot  [][]float64
	cold [][]float64
	big  [][]float64
}

func newServeInputs(seed int64) *serveInputs {
	r := newRNG(seed, streamServeInputs)
	in := &serveInputs{}
	for i := 0; i < hotOps; i++ {
		in.hot = append(in.hot, r.spd(hotN))
	}
	for i := 0; i < coldPool; i++ {
		in.cold = append(in.cold, r.general(coldN, coldN))
	}
	for i := 0; i < bigPool; i++ {
		in.big = append(in.big, r.spd(bigN))
	}
	return in
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

// materialize builds every job's submission before the clock starts. The
// fingerprints of the hot operators come from the server's set-up. Cold and
// big operators cycle through their pools in schedule order.
func materialize(seed int64, arr []arrival, in *serveInputs, hotFP []string) []*serveJob {
	r := newRNG(seed, streamServeJobs)
	jobs := make([]*serveJob, len(arr))
	var nCold, nBig int
	for i, a := range arr {
		j := &serveJob{arrival: a}
		switch a.class {
		case classTiny:
			j.n = tinyNs[a.pick%len(tinyNs)]
			j.a, j.b = r.spd(j.n), r.general(j.n, 1)
			j.spec = exadla.ServeJob{Op: exadla.ServeSolveSPD, N: j.n, A: clone(j.a), B: clone(j.b)}
		case classWarm:
			h := a.pick % hotOps
			j.n, j.a, j.b = hotN, in.hot[h], r.general(hotN, 1)
			j.spec = exadla.ServeJob{Op: exadla.ServeSolveSPD, N: j.n, Fingerprint: hotFP[h], B: clone(j.b)}
		case classCold:
			j.n, j.a, j.b = coldN, in.cold[nCold%coldPool], r.general(coldN, 1)
			nCold++
			j.spec = exadla.ServeJob{Op: exadla.ServeSolveLU, N: j.n, A: clone(j.a), B: clone(j.b)}
		case classBig:
			j.n = bigN
			j.spec = exadla.ServeJob{Op: exadla.ServeFactorSPD, N: j.n, A: clone(in.big[nBig%bigPool])}
			nBig++
		}
		jobs[i] = j
	}
	return jobs
}

// submitWait submits one job and waits for it; set-up and warm-up use it.
func submitWait(srv *exadla.SolveServer, spec exadla.ServeJob) (exadla.ServeStatus, error) {
	id, err := srv.Submit(serveTenant, spec)
	if err != nil {
		return exadla.ServeStatus{}, err
	}
	st, _ := srv.WaitJob(id)
	if st.State != "done" {
		return st, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
	}
	return st, nil
}

// serveSetup starts a server, factors the hot operators into its cache, and
// warms each class once with inputs outside the measured pools.
func serveSetup(seed int64, in *serveInputs, t *tally) (*exadla.SolveServer, []string, error) {
	srv, err := exadla.Serve(exadla.ServeConfig{})
	if err != nil {
		return nil, nil, err
	}
	var fps []string
	for _, a := range in.hot {
		st, err := submitWait(srv, exadla.ServeJob{Op: exadla.ServeFactorSPD, N: hotN, A: clone(a)})
		t.record(err, err == nil && st.Fingerprint != "")
		if err != nil {
			srv.Close()
			return nil, nil, fmt.Errorf("factor hot operator: %w", err)
		}
		fps = append(fps, st.Fingerprint)
	}
	r := newRNG(seed, streamSetup)
	warm := []*serveJob{
		{n: 16, a: r.spd(16), b: r.general(16, 1)},
		{n: hotN, a: in.hot[0], b: r.general(hotN, 1)},
		{n: coldN, a: r.general(coldN, coldN), b: r.general(coldN, 1)},
	}
	warm[0].spec = exadla.ServeJob{Op: exadla.ServeSolveSPD, N: 16, A: clone(warm[0].a), B: clone(warm[0].b)}
	warm[1].spec = exadla.ServeJob{Op: exadla.ServeSolveSPD, N: hotN, Fingerprint: fps[0], B: clone(warm[1].b)}
	warm[2].spec = exadla.ServeJob{Op: exadla.ServeSolveLU, N: coldN, A: clone(warm[2].a), B: clone(warm[2].b)}
	for _, j := range warm {
		st, err := submitWait(srv, j.spec)
		x, rerr := srv.Result(st.ID)
		t.record(errors.Join(err, rerr), err == nil && rerr == nil && solvedOK(j.n, j.n, j.a, x, j.b))
	}
	st, err := submitWait(srv, exadla.ServeJob{Op: exadla.ServeFactorSPD, N: bigN, A: r.spd(bigN)})
	t.record(err, err == nil && st.Fingerprint != "")
	return srv, fps, nil
}

// serveRun is one pass of the schedule: what the untraced and traced runs
// and the layer probe of other workloads all share.
type serveRun struct {
	jobs     []*serveJob
	status   []exadla.ServeStatus // zero where the job was shed or refused
	latency  []float64            // ms from the scheduled send time; NaN where not done
	lagMs    []float64
	submitUs []float64 // traced runs only
	srv      *exadla.SolveServer

	fill *qrFiller // qr_ms, made in idle gaps of the schedule
}

func runServe(e *env, seconds time.Duration, withQR bool, o *outcome) (*serveRun, error) {
	in := newServeInputs(e.seed)
	var srv *exadla.SolveServer
	var fps []string
	var setups []float64
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			srv.Close()
		}
		start := time.Now()
		var err error
		if srv, fps, err = serveSetup(e.seed, in, &o.tally); err != nil {
			return nil, err
		}
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}
	o.e2e["setup_s"] = median(setups)

	count := int(serveRate * seconds.Seconds())
	run := &serveRun{jobs: materialize(e.seed, schedule(e.seed, count, serveRate), in, fps), srv: srv}
	ids := make([]string, count)
	run.lagMs = make([]float64, count)
	if withQR {
		run.fill = newQRFiller(e.seed, fillM, fillN, []exadla.Option{exadla.WithWorkers(e.nproc)})
	}
	runtime.GC()
	t0 := time.Now()
	var prev time.Duration
	for i, j := range run.jobs {
		if withQR && j.at-prev >= fillGap {
			time.Sleep(time.Until(t0.Add(prev + fillDelay)))
			run.fill.call(&o.tally)
		}
		prev = j.at
		due := t0.Add(j.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		run.lagMs[i] = float64(now.Sub(due)) / 1e6
		id, err := srv.Submit(serveTenant, j.spec)
		if e.trace && i%2 == 0 {
			run.submitUs = append(run.submitUs, float64(time.Since(now))/1e3)
		}
		var shed *exadla.ServeShedError
		switch {
		case errors.As(err, &shed):
			o.shed++
		case err == nil:
			ids[i] = id
		}
	}
	run.status = make([]exadla.ServeStatus, count)
	run.latency = make([]float64, count)
	for i, j := range run.jobs {
		o.attempted++
		if ids[i] == "" {
			o.failed++
			continue
		}
		st, _ := srv.WaitJob(ids[i])
		run.status[i] = st
		ok := st.State == "done"
		if ok && j.class == classBig {
			ok = st.Fingerprint != ""
		} else if ok {
			x, err := srv.Result(ids[i])
			ok = err == nil && solvedOK(j.n, j.n, j.a, x, j.b)
		}
		if !ok {
			o.failed++
		}
		run.latency[i] = run.lagMs[i] + st.QueueWaitMs + st.RunMs
	}
	return run, nil
}

// byClass returns the latencies of the jobs of class c (every class when c
// is negative).
func (run *serveRun) byClass(c int, xs []float64) []float64 {
	var out []float64
	for i, j := range run.jobs {
		if (c < 0 || j.class == c) && run.status[i].State == "done" {
			out = append(out, xs[i])
		}
	}
	return out
}

func serveWorkload(e *env) (*outcome, error) {
	o := newOutcome()
	run, err := runServe(e, e.seconds, true, o)
	if err != nil {
		return nil, err
	}
	all := run.byClass(-1, run.latency)
	o.latency("p50_ms", all)
	p99, err := percentile(all, 99)
	if err != nil {
		return nil, fmt.Errorf("tail_ms: %w", err)
	}
	o.e2e["tail_ms"] = p99
	o.notef("tail_ms  p99    %9.3f ms   n=%d", p99, len(all))
	o.latency("chol_ms", run.byClass(classWarm, run.latency))
	o.latency("lu_ms", run.byClass(classCold, run.latency))
	o.notef("chol_ms and lu_ms are the warm (SPD by fingerprint) and cold (LU upload) job latencies")
	o.notef("generator lag p50 %.3f ms, max %.3f ms", median(run.lagMs), sorted(run.lagMs)[len(run.lagMs)-1])
	if e.trace {
		serveLayers(run, o)
		o.layer["trace_overhead_pct"] = serveOverheadPct(run)
	}
	if err := run.srv.Close(); err != nil {
		return nil, err
	}
	run.srv = nil
	run.fill.report(o, fmt.Sprintf("%d×%d, in idle gaps of the schedule", fillM, fillN))
	return o, nil
}

// serveOverheadPct compares the median latency of the jobs whose Submit was
// timed with the layer timer (the even ones) against the other half.
func serveOverheadPct(run *serveRun) float64 {
	halves := [2][]float64{}
	for i := range run.jobs {
		if run.status[i].State == "done" {
			halves[i%2] = append(halves[i%2], run.latency[i])
		}
	}
	return overheadPct(map[string][]float64{"job": halves[1]}, map[string][]float64{"job": halves[0]})
}
