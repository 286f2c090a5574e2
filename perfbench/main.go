// Command perfbench is the repository's end-to-end benchmark. It drives the
// public exadla API from one process through one of four seeded workloads,
// checks every answer off the clock, and prints each end-to-end metric by
// name. With --trace 1 it runs the same workload with span hooks and layer
// timers on and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"exadla/internal/blas"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run prints, in the
// order of BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"chol_ms", "ms"},
	{"lu_ms", "ms"},
	{"qr_ms", "ms"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// env is one invocation's settings.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int
}

// outcome is what a workload measured. e2e holds the end-to-end values;
// layer the per-layer values a traced run gathered on the way.
type outcome struct {
	tally
	e2e   map[string]float64
	layer map[string]float64
	notes []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// latency sets the end-to-end metric name to the median of xs (ms) and
// notes its tail and sample count beside it.
func (o *outcome) latency(name string, xs []float64) {
	o.e2e[name] = median(xs)
	if p, v, ok := tail(xs); ok {
		o.notef("%-8s median %9.3f ms   p%-4g %9.3f ms   n=%d", name, o.e2e[name], p, v, len(xs))
	} else {
		o.notef("%-8s median %9.3f ms   (too few samples for a tail)   n=%d", name, o.e2e[name], len(xs))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"factor":    func(e *env) (*outcome, error) { return factorWorkload(e, false) },
	"factor-ft": func(e *env) (*outcome, error) { return factorWorkload(e, true) },
	"serve":     serveWorkload,
	"dist":      distWorkload,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "factor, factor-ft, serve or dist")
	seed := flag.Int64("seed", 1, "input and schedule seed")
	seconds := flag.Int("seconds", 25, "length of the timed loop")
	traced := flag.Int("trace", 0, "1 runs with span hooks and prints per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload factor|factor-ft|serve|dist, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, nproc: runtime.NumCPU()}
	fmt.Printf("host nproc=%d gomaxprocs=%d goarch=%s go=%s gemm_microkernel=%s\n",
		e.nproc, runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), microkernel())
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *name, e.seed, *seconds, *traced)
	began := time.Now()
	o, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	o.e2e["rss_peak_mb"] = peakRSSMB()
	o.notef("process cpu %.2f s over %.2f s wall, %d minor faults", cpuSeconds(), time.Since(began).Seconds(), rusage().Minflt)
	defs, values := endToEnd, o.e2e
	if e.trace {
		if err := probeLayers(e, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: layers: %v\n", *name, err)
			os.Exit(1)
		}
		defs, values = layerMetrics, o.layer
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", *name, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	if extra := unlisted(values, defs); len(extra) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: measured but not declared: %v\n", *name, extra)
		os.Exit(1)
	}
	fmt.Printf("ops attempted=%d failed=%d shed=%d\n", o.attempted, o.failed, o.shed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// unlisted returns the measured names defs does not declare, so a metric
// cannot be computed and then silently dropped from the report.
func unlisted(values map[string]float64, defs []metricDef) []string {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for n := range values {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// rusage reports the process's resource use; the zero value if the call
// fails, which only a bad argument can cause.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB; Linux reports
// it in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// microkernel names the GEMM register kernel the blas package dispatches:
// the 8×4 AVX2+FMA assembly kernel runs when the CPU has those features and
// the installed blocking asks for 8 rows.
func microkernel() string {
	if haveAvx2Fma() && blas.GemmBlocking().MR == 8 {
		return "avx2_fma_8x4"
	}
	return "portable"
}
