// m3vbench runs the reproduced experiments of the paper's evaluation and
// prints their tables, including the paper's published values side by side.
//
//	m3vbench                          # everything, sweep points fanned across all CPUs
//	m3vbench -run fig6                # one experiment: table1, sloc, fig6..fig10, voice
//	m3vbench -run fig9 -parallel 4    # cap the sweep worker pool at 4
//	m3vbench -run fig6 -trace t.json  # also dump a merged Chrome trace of all runs
//	m3vbench -bench-json BENCH_m3vbench.json   # record wall-clock + rows as JSON
//	m3vbench -run fig9 -compare-serial ...     # also run serially, assert identical tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"m3v/internal/bench"
	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// order is the canonical run sequence of the shared experiment registry
// (bench.Experiments), the single source of truth for experiment names used
// here and by the m3vd serving layer.
var order = func() []string {
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}()

// benchRow is one table row in the -bench-json report.
type benchRow struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Paper float64 `json:"paper,omitempty"`
}

// benchExperiment is one experiment's record in the -bench-json report.
type benchExperiment struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	WallMs float64    `json:"wall_ms"`
	Rows   []benchRow `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
	// Scheduler throughput: simulation events dispatched during the
	// experiment (its parallel pass only, under -compare-serial) and the
	// resulting events per wall-clock second.
	EventsExecuted uint64  `json:"events_executed,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	// Set by -compare-serial: the serial wall clock, the parallel/serial
	// speedup, and whether the two tables were byte-identical.
	SerialWallMs float64 `json:"serial_wall_ms,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	Identical    *bool   `json:"identical,omitempty"`
	// Tail latencies: the p99 of TileMux context switches and of DTU
	// command durations, merged across every system the experiment
	// simulated (quantile-sketch estimates, relative error <= 1/16). Zero
	// when recorder collection was off.
	P99SwitchPs int64 `json:"p99_switch_ps,omitempty"`
	P99CmdPs    int64 `json:"p99_cmd_ps,omitempty"`
}

// benchReport is the BENCH_m3vbench.json schema (schema "m3vbench/v3"): the
// per-experiment simulated metrics plus the simulator's own wall-clock
// trajectory, so performance regressions of the simulator are recorded run
// over run.
type benchReport struct {
	Schema      string            `json:"schema"`
	Timestamp   string            `json:"timestamp"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"num_cpu"`
	Parallel    int               `json:"parallel"`
	Experiments []benchExperiment `json:"experiments"`
	TotalWallMs float64           `json:"total_wall_ms"`
}

// benchSchema is the only report version this binary writes and reads.
const benchSchema = "m3vbench/v3"

// loadBenchReport reads a BENCH_m3vbench.json of the current schema.
func loadBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != benchSchema {
		return nil, fmt.Errorf("%s: unsupported schema %q", path, r.Schema)
	}
	return &r, nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// options are the parsed command-line settings.
type options struct {
	run           []bench.Experiment
	list          bool
	traceFile     string
	flowsFile     string
	metrics       bool
	parallel      int
	benchJSON     string
	baseline      string
	compareSerial bool
	fig9Series    []int
	faultSeed     uint64
	faultRate     float64
	sampleEvery   sim.Time
	seriesFile    string
	cpuProfile    string
	memProfile    string
}

// parseOptions parses the command line. Split from main for CLI tests.
func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("m3vbench", flag.ContinueOnError)
	run := fs.String("run", "", "comma-separated experiment ids (default: all)")
	fs.BoolVar(&o.list, "list", false, "list experiment ids")
	fs.StringVar(&o.traceFile, "trace", "", "write a merged Chrome trace-event JSON file of all simulated runs")
	fs.StringVar(&o.flowsFile, "flows", "", "write the causal span streams of all runs as m3vflows JSON (analyze with m3vtrace)")
	fs.BoolVar(&o.metrics, "metrics", false, "print the metrics registry of each simulated run")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "worker count for independent sweep points (1 = serial)")
	fs.StringVar(&o.benchJSON, "bench-json", "", "write wall-clock and simulated metrics to this JSON file")
	fs.BoolVar(&o.compareSerial, "compare-serial", false, "run each experiment twice (parallel and -parallel 1), assert byte-identical tables, and record the speedup")
	fig9Tiles := fs.String("fig9-tiles", "", "override the fig9 tile-count series, e.g. 1,2,4 (smoke runs)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "fault-injection schedule seed (with -fault-rate)")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "uniform fault-injection rate in [0,1] applied to every simulated system (0 disables)")
	sampleIvl := fs.String("sample-interval", "", "telemetry sampling interval in sim time applied to every simulated system (e.g. 100ns; empty disables)")
	fs.StringVar(&o.seriesFile, "series", "", "write the sampled telemetry series of all runs as m3vseries JSON (report with m3vstat)")
	fs.StringVar(&o.baseline, "baseline", "", "compare wall clock against a previous BENCH_m3vbench.json")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on clean exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.parallel < 1 {
		return nil, fmt.Errorf("-parallel must be >= 1, got %d", o.parallel)
	}
	if o.faultRate < 0 || o.faultRate > 1 {
		return nil, fmt.Errorf("-fault-rate must be in [0,1], got %g", o.faultRate)
	}
	if *sampleIvl != "" {
		var err error
		o.sampleEvery, err = sim.ParseTime(*sampleIvl)
		if err != nil {
			return nil, fmt.Errorf("-sample-interval: %w", err)
		}
	}
	if o.seriesFile != "" && o.sampleEvery == 0 {
		return nil, fmt.Errorf("-series requires -sample-interval")
	}
	if *fig9Tiles != "" {
		series, err := parseTiles(*fig9Tiles)
		if err != nil {
			return nil, err
		}
		o.fig9Series = series
	}
	// Resolve the ids up front: a typo must fail before any experiment
	// runs, not after an earlier one has spent minutes.
	if *run == "" {
		o.run = bench.Experiments()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := bench.Lookup(strings.TrimSpace(id))
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			o.run = append(o.run, e)
		}
	}
	return o, nil
}

// params builds the one configuration value every experiment runs with.
func (o *options) params() bench.Params {
	p := bench.Params{Tiles: o.fig9Series}
	if o.faultRate > 0 {
		p.Fault = fault.Uniform(o.faultSeed, o.faultRate)
	}
	if o.sampleEvery > 0 {
		p.Sample = core.SampleConfig{Interval: o.sampleEvery}
	}
	return p
}

// parseTiles parses a -fig9-tiles series like "1,2,4".
func parseTiles(s string) ([]int, error) {
	var tiles []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -fig9-tiles entry %q", part)
		}
		tiles = append(tiles, n)
	}
	return tiles, nil
}

// listExperiments prints the experiment ids in run order.
func listExperiments(out io.Writer) {
	for _, id := range order {
		fmt.Fprintln(out, id)
	}
}

func main() {
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fail("%v", err)
	}
	if o.list {
		listExperiments(os.Stdout)
		return
	}
	bench.SetParallelism(o.parallel)
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	params := o.params()
	// Experiments build their Systems internally; collect every recorder
	// created while they run via the global auto-register hook. Under
	// -parallel the registration order follows run completion, so merged
	// traces are ordered by (run, timestamp) with run indices assigned in
	// completion order rather than table order. The series export and the
	// report's p99 fields need the recorders too (metrics only — the event
	// stream stays off for them).
	collect := o.traceFile != "" || o.flowsFile != "" || o.metrics ||
		o.seriesFile != "" || o.benchJSON != ""
	if collect {
		trace.SetAutoRegister(true, o.traceFile != "" || o.flowsFile != "")
		defer trace.SetAutoRegister(false, false)
	}
	report := benchReport{
		Schema:    benchSchema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Parallel:  o.parallel,
	}
	run := func(e bench.Experiment) *bench.Result {
		r, err := e.Run(params, nil)
		if err != nil {
			fail("%s: %v", e.ID, err)
		}
		return r
	}
	t0 := time.Now()
	for _, e := range o.run {
		ev0 := sim.TotalEventsExecuted()
		recStart := len(trace.Registered())
		start := time.Now()
		r := run(e)
		wall := time.Since(start)
		events := sim.TotalEventsExecuted() - ev0
		fmt.Println(r)
		exp := benchExperiment{
			ID:             r.ID,
			Title:          r.Title,
			WallMs:         float64(wall.Microseconds()) / 1000,
			Notes:          r.Notes,
			EventsExecuted: events,
		}
		if collect {
			// Slice off this experiment's recorders before any -compare-serial
			// rerun registers duplicates.
			exp.P99SwitchPs, exp.P99CmdPs = tailLatencies(trace.Registered()[recStart:])
		}
		if secs := wall.Seconds(); secs > 0 {
			exp.EventsPerSec = float64(events) / secs
		}
		for _, m := range r.Rows {
			exp.Rows = append(exp.Rows, benchRow{Label: m.Label, Value: m.Value, Unit: m.Unit, Paper: m.Paper})
		}
		if o.compareSerial {
			bench.SetParallelism(1)
			serialStart := time.Now()
			sr := run(e)
			serialWall := time.Since(serialStart)
			bench.SetParallelism(o.parallel)
			identical := sr.String() == r.String()
			exp.SerialWallMs = float64(serialWall.Microseconds()) / 1000
			if wall > 0 {
				exp.Speedup = float64(serialWall) / float64(wall)
			}
			exp.Identical = &identical
			fmt.Printf("compare-serial %s: parallel %.0fms, serial %.0fms (%.2fx), tables identical: %v\n\n",
				r.ID, exp.WallMs, exp.SerialWallMs, exp.Speedup, identical)
			if !identical {
				fail("%s: parallel and serial tables differ — determinism violated", r.ID)
			}
		}
		report.Experiments = append(report.Experiments, exp)
	}
	report.TotalWallMs = float64(time.Since(t0).Microseconds()) / 1000

	if o.baseline != "" {
		old, err := loadBenchReport(o.baseline)
		if err != nil {
			fail("baseline: %v", err)
		}
		printBaselineDelta(os.Stdout, old, &report)
	}

	recs := trace.Registered()
	if o.traceFile != "" {
		f, err := os.Create(o.traceFile)
		if err != nil {
			fail("trace: %v", err)
		}
		if err := trace.WriteChromeMerged(f, recs, 0); err != nil {
			fail("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("trace: %v", err)
		}
		total := 0
		for _, r := range recs {
			total += len(r.Events())
		}
		fmt.Printf("trace: %d events from %d runs -> %s\n", total, len(recs), o.traceFile)
	}
	if o.flowsFile != "" {
		f, err := os.Create(o.flowsFile)
		if err != nil {
			fail("flows: %v", err)
		}
		if err := trace.WriteFlows(f, recs); err != nil {
			fail("flows: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("flows: %v", err)
		}
		total := 0
		for _, r := range recs {
			total += len(r.Spans())
		}
		fmt.Printf("flows: %d spans from %d runs -> %s\n", total, len(recs), o.flowsFile)
	}
	if o.seriesFile != "" {
		f, err := os.Create(o.seriesFile)
		if err != nil {
			fail("series: %v", err)
		}
		if err := trace.WriteSeries(f, recs); err != nil {
			fail("series: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("series: %v", err)
		}
		fmt.Printf("series: %d runs -> %s\n", len(recs), o.seriesFile)
	}
	if o.metrics {
		for i, r := range recs {
			fmt.Printf("--- run %d ---\n%s", i, r.Metrics().Summary())
		}
	}
	if o.benchJSON != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fail("bench-json: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(o.benchJSON, data, 0o644); err != nil {
			fail("bench-json: %v", err)
		}
		fmt.Printf("bench-json: %d experiments, %.0fms total -> %s\n",
			len(report.Experiments), report.TotalWallMs, o.benchJSON)
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			fail("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("memprofile: %v", err)
		}
	}
}

// tailLatencies merges the context-switch and DTU-command latency histograms
// across every recorder of one experiment and reports their p99, in
// picoseconds. The sketch estimate carries a relative error of at most 1/16.
func tailLatencies(recs []*trace.Recorder) (p99Switch, p99Cmd int64) {
	var sw, cmd trace.Histogram
	for _, r := range recs {
		for _, h := range r.Metrics().Histograms() {
			switch {
			case strings.HasSuffix(h.Name(), ".mux.switch_time"):
				sw.Merge(h)
			case strings.HasSuffix(h.Name(), ".dtu.cmd_time"):
				cmd.Merge(h)
			}
		}
	}
	return sw.Quantile(0.99), cmd.Quantile(0.99)
}

// printBaselineDelta prints the wall-clock trajectory of the current run
// against a previously recorded report.
func printBaselineDelta(w io.Writer, old, cur *benchReport) {
	oldExp := make(map[string]benchExperiment, len(old.Experiments))
	for _, e := range old.Experiments {
		oldExp[e.ID] = e
	}
	for _, e := range cur.Experiments {
		prev, ok := oldExp[e.ID]
		if !ok || prev.WallMs <= 0 {
			fmt.Fprintf(w, "baseline %s: no previous wall clock\n", e.ID)
			continue
		}
		delta := (e.WallMs - prev.WallMs) / prev.WallMs * 100
		fmt.Fprintf(w, "baseline %s: %.0fms -> %.0fms (%+.1f%%)\n",
			e.ID, prev.WallMs, e.WallMs, delta)
	}
	if old.TotalWallMs > 0 {
		delta := (cur.TotalWallMs - old.TotalWallMs) / old.TotalWallMs * 100
		fmt.Fprintf(w, "baseline total (%s): %.0fms -> %.0fms (%+.1f%%)\n",
			old.Schema, old.TotalWallMs, cur.TotalWallMs, delta)
	}
}
