package main

import (
	"fmt"
	"runtime"
	"time"

	"exadla"
)

// Factor sizes: n=1024 square solves and a 2:1 tall least-squares problem,
// large enough that the packed GEMM core and the tile DAGs dominate.
const (
	factorN    = 1024
	lsM, lsN   = 1024, 512
	factorPool = 2 // distinct input sets per kind, rotated
	setupReps  = 3 // set-ups per run; setup_s is their median

	// ctxRounds is how many rounds one Context serves before the loop
	// replaces it, off the clock. A sched.Runtime never forgets a tile
	// handle, so a Context keeps every operation's tiles alive (README,
	// finding 3); a fixed count keeps rss_peak_mb comparable and bounded.
	ctxRounds = 4
)

// problem is one generated input: the pristine A (m×n) and b the check
// reads, and the copies handed to the program.
type problem struct {
	m, n   int
	a, b   []float64
	am, bm *exadla.Matrix
}

func newProblem(m, n int, a, b []float64) *problem {
	return &problem{m: m, n: n, a: a, b: b,
		am: exadla.FromSlice(m, n, append([]float64(nil), a...)),
		bm: exadla.FromSlice(m, 1, append([]float64(nil), b...))}
}

// factorOp is one kind of closed-loop call, reported as metric.
type factorOp struct {
	metric string
	call   func(c *exadla.Context, a, b *exadla.Matrix) (*exadla.Matrix, error)
	inputs []*problem
	flops  float64
}

// run makes one checked call and returns its wall time in ms; the check
// runs after the clock stops.
func (op *factorOp) run(ctx *exadla.Context, in *problem, t *tally) float64 {
	start := time.Now()
	x, err := op.call(ctx, in.am, in.bm)
	ms := float64(time.Since(start)) / 1e6
	t.record(err, err == nil && solvedOK(in.m, in.n, in.a, x.Data(), in.b))
	return ms
}

func spdProblems(r *rng, n, count int) []*problem {
	var ps []*problem
	for i := 0; i < count; i++ {
		ps = append(ps, newProblem(n, n, r.spd(n), r.general(n, 1)))
	}
	return ps
}

func generalProblems(r *rng, n, count int) []*problem {
	var ps []*problem
	for i := 0; i < count; i++ {
		ps = append(ps, newProblem(n, n, r.general(n, n), r.general(n, 1)))
	}
	return ps
}

// lsProblems builds consistent tall systems b = A·x₀, so the least-squares
// answer has the same small scaled residual as a square solve.
func lsProblems(r *rng, m, n, count int) []*problem {
	var ps []*problem
	for i := 0; i < count; i++ {
		a := r.general(m, n)
		ps = append(ps, newProblem(m, n, a, matVec(m, n, a, r.general(n, 1))))
	}
	return ps
}

func cholOp(inputs []*problem) *factorOp {
	n := float64(inputs[0].n)
	return &factorOp{"chol_ms", (*exadla.Context).SolveSPD, inputs, n * n * n / 3}
}

func luOp(inputs []*problem) *factorOp {
	n := float64(inputs[0].n)
	return &factorOp{"lu_ms", (*exadla.Context).Solve, inputs, 2 * n * n * n / 3}
}

func qrOp(inputs []*problem) *factorOp {
	m, n := float64(inputs[0].m), float64(inputs[0].n)
	return &factorOp{"qr_ms", (*exadla.Context).LeastSquares, inputs, 2*m*n*n - 2*n*n*n/3}
}

// factorWorkload is the closed loop of one caller over a Context with nproc
// workers, rotating SPD solve, LU solve and (without ft) least squares.
// With ft the Context verifies and protects every factorization
// (WithFaultTolerance, WithErasure) and the loop rotates SPD and LU only;
// qr_ms then comes from a qrFiller with the same options.
func factorWorkload(e *env, ft bool) (*outcome, error) {
	o := newOutcome()
	r := newRNG(e.seed, streamFactor)
	ops := []*factorOp{cholOp(spdProblems(r, factorN, factorPool)), luOp(generalProblems(r, factorN, factorPool))}
	opts := []exadla.Option{exadla.WithWorkers(e.nproc)}
	var fill *qrFiller
	if ft {
		opts = append(opts, exadla.WithFaultTolerance(), exadla.WithErasure())
		fill = newQRFiller(e.seed, lsM, lsN, opts)
	} else {
		ops = append(ops, qrOp(lsProblems(r, lsM, lsN, factorPool)))
	}

	// Set-up: a Context plus the first call of each kind, then a GC.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		ctx := exadla.NewContext(opts...)
		for _, op := range ops {
			op.run(ctx, op.inputs[0], &o.tally)
		}
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
		ctx.Close()
	}
	o.e2e["setup_s"] = median(setups)

	// A traced run interleaves every call with the same call on a second,
	// tracing Context, so both halves see the same host drift.
	ctxOpts := [][]exadla.Option{opts}
	if e.trace {
		ctxOpts = append(ctxOpts, append(opts, exadla.WithTracing()))
	}
	ctxs := make([]*exadla.Context, len(ctxOpts))
	renew := func() {
		for i, co := range ctxOpts {
			if ctxs[i] != nil {
				ctxs[i].Close()
			}
			ctxs[i] = exadla.NewContext(co...)
		}
		runtime.GC()
	}
	defer func() {
		for _, c := range ctxs {
			c.Close()
		}
	}()

	samples := make([]map[string][]float64, len(ctxs))
	for i := range samples {
		samples[i] = map[string][]float64{}
	}
	var rounds []float64
	var flops, busy float64
	deadline := time.Now().Add(e.seconds)
	for round := 0; time.Now().Before(deadline); round++ {
		// Between rounds, off the clock: a fresh Context every ctxRounds
		// rounds, and a GC every round, so the heap (and rss_peak_mb) takes
		// the same path in every run.
		if round%ctxRounds == 0 {
			renew()
		} else {
			runtime.GC()
		}
		var roundMs float64
		for _, op := range ops {
			in := op.inputs[round%len(op.inputs)]
			for k := range ctxs {
				c := (k + round) % len(ctxs) // alternate which Context goes first
				ms := op.run(ctxs[c], in, &o.tally)
				samples[c][op.metric] = append(samples[c][op.metric], ms)
				if c == 0 {
					roundMs += ms
					flops += op.flops
					busy += ms
				} else {
					ctxs[c].ResetTrace()
				}
			}
		}
		rounds = append(rounds, roundMs)
		if fill != nil {
			fill.call(&o.tally)
		}
	}
	for _, op := range ops {
		o.latency(op.metric, samples[0][op.metric])
	}
	o.latency("p50_ms", rounds)
	o.e2e["tail_ms"] = tailValue(rounds)
	o.notef("p50_ms and tail_ms are the closed loop's round time (one call of each kind)")
	o.notef("throughput %.3f GF/s (not gated)", flops/busy/1e6)
	if e.trace {
		o.layer["trace_overhead_pct"] = overheadPct(samples[0], samples[1])
	}
	if fill != nil {
		fill.report(o, "once per round, outside the round time")
	}
	return o, nil
}

// qrFiller measures qr_ms on a workload whose own traffic has no QR, so
// that every run reports every end-to-end metric: checked least-squares
// calls spread over the run, each made between the workload's own timed
// operations and never overlapping them. Each call gets a fresh Context,
// made and closed off the clock, since a long-lived one would keep every
// call's tiles alive (README, finding 3).
type qrFiller struct {
	opts []exadla.Option
	op   *factorOp
	ms   []float64
}

func newQRFiller(seed int64, m, n int, opts []exadla.Option) *qrFiller {
	return &qrFiller{opts: opts, op: qrOp(lsProblems(newRNG(seed, streamQRFill), m, n, factorPool))}
}

func (q *qrFiller) call(t *tally) {
	ctx := exadla.NewContext(q.opts...)
	defer ctx.Close()
	q.ms = append(q.ms, q.op.run(ctx, q.op.inputs[len(q.ms)%len(q.op.inputs)], t))
}

func (q *qrFiller) report(o *outcome, where string) {
	o.e2e["qr_ms"] = median(q.ms)
	o.notef("qr_ms    median %9.3f ms   n=%d (least squares %s)", o.e2e["qr_ms"], len(q.ms), where)
}

// tailValue is the value tail reports, or the maximum when the samples are
// too few for any percentile with minBeyond samples beyond it.
func tailValue(xs []float64) float64 {
	if _, v, ok := tail(xs); ok {
		return v
	}
	s := sorted(xs)
	return s[len(s)-1]
}

// overheadPct compares the traced and untraced medians of every metric the
// two sample sets share: the mean relative slowdown, in percent.
func overheadPct(plain, traced map[string][]float64) float64 {
	var sum float64
	var n int
	for name, xs := range plain {
		if ys := traced[name]; len(ys) > 0 && len(xs) > 0 {
			sum += median(ys)/median(xs) - 1
			n++
		}
	}
	if n == 0 {
		panic(fmt.Sprintf("overheadPct: no shared metrics in %d and %d sets", len(plain), len(traced)))
	}
	return 100 * sum / float64(n)
}
