// Command perfbench is the repository benchmark. It measures the host cost
// of the simulator (wall-clock and CPU time on the machine it runs on, not
// simulated time) and of the m3vd serving path, on three workloads, and
// checks every result it produces against the committed golden snapshot.
//
//	bash perfbench/run.sh --workload fig9-mux --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics of a traced run:
// layer probes, simulated-work counts, a CPU-profile breakdown and the
// tracing overhead; that run also writes a JSON report with the
// benchmark-side spans to .bench_build/. Either way the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics, and the exit code is non-zero if any output was wrong.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"m3v/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string // repository root: golden.json is read from here
	out      string // directory for the traced-run report and profiles
	// setupOnly makes the process a set-up probe: it sets the workload up,
	// reports that on standard output, and exits. measureSetup starts it.
	setupOnly bool
}

// workload is one benchmark input set.
type workload interface {
	// setup brings the workload to the point where its first timed
	// operation can start. A process calls it once.
	setup() error
	// pass runs one pass of the workload's operations and checks each
	// result.
	pass(o passOpts) passResult
	// finish makes the checks that need the whole run and returns their
	// failures, each counted once in failed.
	finish() []string
	// extras are workload-specific figures for the report; traced selects
	// those only the traced run measures.
	extras(traced bool) []extra
	// close releases what setup acquired.
	close()
}

// passOpts configures one pass.
type passOpts struct {
	sp     *spans // benchmark-side spans; nil when tracing is off
	parent int    // span the pass's operation spans hang under
	// afterOp, when set, runs after every operation. The traced run uses
	// it to harvest and drop the recorders a simulation registered, so a
	// traced pass never holds more than one simulation's event stream.
	afterOp func()
	// fixed makes the pass draw the workload's fixed input, the same work
	// on every call for a seed, so the traced run's traced pass and its
	// untraced reference can be compared. The fig workloads' input is
	// always fixed; serve-mix then draws its own request stream.
	fixed bool
}

// passResult is what a pass reports about its operations.
type passResult struct {
	attempted int
	failed    int
	completed int       // operations that finished with a correct result
	lat       []float64 // host latency per operation, ms
	errs      []string
}

// fail records one failed operation.
func (r *passResult) fail(format string, args ...interface{}) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// extra is a workload-specific figure printed in the report.
type extra struct {
	name  string
	value float64
	unit  string
	note  string
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"fig9-mux", "fig10-ycsb", "serve-mix"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "fig9-mux":
		return &fig9Mux{root: o.root}, nil
	case "fig10-ycsb":
		return &fig10YCSB{root: o.root}, nil
	case "serve-mix":
		return &serveMix{root: o.root, seed: o.seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (serve-mix request stream)")
	fs.IntVar(&o.seconds, "seconds", 30, "how long the timed passes run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for traced-run reports and profiles")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up, print \"ready\" and exit (used to measure setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S (>= 1) --trace 0|1 and no other arguments")
		return 2
	}
	w, err := newWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer w.close()
	if o.setupOnly {
		if err := w.setup(); err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	if err := w.setup(); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed=%d: start of main to end of set-up %.3f s\n",
		o.workload, o.seed, time.Since(start).Seconds())
	setup, err := measureSetup(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}

	var passes []passStats
	var metrics map[string]metric
	if o.trace == 0 {
		passes = measureFor(w, time.Duration(o.seconds)*time.Second, passOpts{})
		metrics = endToEnd(setup, passes)
	} else {
		if passes, metrics, err = tracedRun(w, o, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: traced run:", err)
			return 1
		}
	}
	checks := w.finish()
	res := tally(passes, len(checks))
	res.Metrics = metrics
	if o.trace == 0 {
		printEndToEnd(stdout, o, res, passes, setup, w.extras(false))
	}
	errs := append(passErrors(passes), checks...)
	for i, e := range errs {
		if i == 10 {
			fmt.Fprintf(stderr, "perfbench: ... and %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: FAIL", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupRuns is the number of set-up probes a run starts; setup_s is the
// median of their times.
const setupRuns = 21

// measureSetup starts this program setupRuns times as a fresh set-up probe
// (--setup-only) and returns, for each, the seconds from starting the
// process to its report that the first timed operation could start. Each
// probe is cold: the time covers process start, Go runtime and package
// initialization, and the workload's set-up, so one-time initialization
// anywhere on that path shows in setup_s. The probes run one at a time,
// and each has exited before the next starts.
func measureSetup(o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ds := make([]float64, 0, setupRuns)
	for len(ds) < setupRuns {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload,
			"--seed", fmt.Sprint(o.seed), "--root", o.root, "--out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		r := bufio.NewReader(out)
		line, rerr := r.ReadString('\n')
		d := time.Since(t0).Seconds()
		r.WriteTo(io.Discard)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe printed %q, want \"ready\"", line)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// passStats is one pass with the host cost it took.
type passStats struct {
	passResult
	wall, cpu float64 // host seconds
	events    uint64  // simulation events executed
	mallocs   uint64  // heap allocations
	allocMB   float64 // bytes allocated, MiB
	gcs       uint32  // completed GC cycles
}

// runPass runs one pass and measures it. A GC first gives every pass the
// same starting heap, so a pass does not pay for its predecessor's garbage.
func runPass(w workload, o passOpts) passStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0 := sim.TotalEventsExecuted()
	c0 := cpuSeconds()
	t0 := time.Now()
	r := w.pass(o)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	ev := sim.TotalEventsExecuted() - ev0
	runtime.ReadMemStats(&m1)
	return passStats{
		passResult: r,
		wall:       wall,
		cpu:        cpu,
		events:     ev,
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocMB:    float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:        m1.NumGC - m0.NumGC,
	}
}

// measureFor runs passes until the next one would end after d, judged by
// the median pass so far; it always runs at least one.
func measureFor(w workload, d time.Duration, o passOpts) []passStats {
	start := time.Now()
	var passes []passStats
	for {
		id := o.sp.begin(0, "pass", "")
		po := o
		po.parent = id
		passes = append(passes, runPass(w, po))
		o.sp.end(id)
		next := time.Duration(median(walls(passes)) * float64(time.Second))
		if time.Since(start)+next > d {
			return passes
		}
	}
}

func walls(ps []passStats) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

func passErrors(ps []passStats) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.errs...)
	}
	return out
}

// tally sums the passes' operation counts; extraFailures are failed
// whole-run checks, each counted as one attempted and failed operation.
func tally(ps []passStats, extraFailures int) result {
	r := result{Attempted: extraFailures, Failed: extraFailures}
	for _, p := range ps {
		r.Attempted += p.attempted
		r.Failed += p.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r
}

// endToEnd derives the end-to-end metrics of a run. Every figure is taken
// per pass and reported as the median over the passes, so a burst of
// contention from outside the process that hits a few passes does not
// decide it.
func endToEnd(setup []float64, ps []passStats) map[string]metric {
	n := len(ps)
	cpus, rates, p50s := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, p := range ps {
		cpus[i] = p.cpu
		rates[i] = float64(p.completed) / p.wall
		p50s[i] = summarize(p.lat).P50
	}
	return map[string]metric{
		"wall_s":      {median(walls(ps)), "s"},
		"cpu_s":       {median(cpus), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"setup_s":     {median(setup), "s"},
		"req_per_s":   {median(rates), "1/s"},
		"p50_ms":      {median(p50s), "ms"},
	}
}

// printEndToEnd writes the human-readable report of an end-to-end run:
// every metric by name and unit with the samples behind it.
func printEndToEnd(w io.Writer, o options, res result, ps []passStats, setup []float64, extras []extra) {
	perPass, beyond := 0, 0
	p99s := make([]float64, len(ps))
	for i, p := range ps {
		perPass = max(perPass, len(p.lat))
		l := summarize(p.lat)
		p99s[i] = l.P99
		beyond += l.beyond(p.lat)
	}
	samples := map[string]string{
		"wall_s":      fmt.Sprintf("median of %d passes", len(ps)),
		"cpu_s":       fmt.Sprintf("median of %d passes, user+sys", len(ps)),
		"peak_rss_mb": "peak resident set of the process",
		"setup_s":     fmt.Sprintf("median of %d cold set-up processes, quartiles %.3g..%.3g s", len(setup), quantile(setup, 0.25), quantile(setup, 0.75)),
		"req_per_s":   fmt.Sprintf("per pass, median of %d passes; %d correct operations in all", len(ps), res.Attempted-res.Failed),
		"p50_ms":      fmt.Sprintf("per pass of up to %d samples, median of %d passes", perPass, len(ps)),
	}
	fmt.Fprintf(w, "%s seed=%d: %d passes, %d operations, %d failed; pass walls (s):",
		o.workload, o.seed, len(ps), res.Attempted, res.Failed)
	for _, p := range ps {
		fmt.Fprintf(w, " %.3f", p.wall)
	}
	fmt.Fprintln(w)
	for _, s := range endToEndSpecs {
		fmt.Fprintf(w, "  %-14s %14.6g %-4s (%s)\n", s.name, res.Metrics[s.name].Value, s.unit, samples[s.name])
	}
	// The tail is printed but kept out of the JSON line: on a host whose
	// CPUs are shared with other tenants it moves with their load, on
	// serve-mix by more than any bound the gate allows.
	fmt.Fprintf(w, "  %-14s %14.6g %-4s (per pass, median of %d passes; %d samples above in all)\n",
		"p99_ms", median(p99s), "ms", len(ps), beyond)
	fmt.Fprintf(w, "  %-14s %14.6g %-4s (%d of %d operations)\n", "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), "", res.Failed, res.Attempted)
	for _, e := range extras {
		v := fmt.Sprintf("%14.6g", e.value)
		if math.IsNaN(e.value) {
			v = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Fprintf(w, "  %-14s %s %-4s (%s)\n", e.name, v, e.unit, e.note)
	}
}
