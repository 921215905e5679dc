// Package cliflags is the observability front-end shared by the m3vsim and
// m3vbench command lines. It registers the trace, flow, series, metrics,
// fault-injection, sampling and profiling flags, validates them, turns them
// into the simulator's configuration values, and writes every export from
// the recorders a run produced — one recorder for m3vsim, every registered
// recorder for m3vbench — so both tools emit the same files and report
// lines.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// Options holds the parsed shared flags.
type Options struct {
	Trace      string // Chrome trace-event JSON output
	Flows      string // m3vflows JSON output
	Series     string // m3vseries JSON output
	Metrics    bool   // print each run's metrics registry
	FaultSeed  uint64
	FaultRate  float64
	CPUProfile string
	MemProfile string

	sampleText  string
	sampleEvery sim.Time
}

// Register declares the shared flags on fs. Call Validate after fs.Parse.
func Register(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.Trace, "trace", "", "write the simulated runs as one Chrome trace-event JSON file (load in Perfetto)")
	fs.StringVar(&o.Flows, "flows", "", "write the causal span streams of the runs as m3vflows JSON (analyze with m3vtrace)")
	fs.StringVar(&o.Series, "series", "", "write the sampled telemetry series of the runs as m3vseries JSON (report with m3vstat)")
	fs.BoolVar(&o.Metrics, "metrics", false, "print the metrics registry of each simulated run")
	fs.Uint64Var(&o.FaultSeed, "fault-seed", 1, "fault-injection schedule seed (with -fault-rate)")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "uniform fault-injection rate in [0,1] applied to every simulated system (0 disables)")
	fs.StringVar(&o.sampleText, "sample-interval", "", "telemetry sampling interval in sim time, at least 10ns, e.g. 100ns or 1us (empty disables)")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile to this file on clean exit")
	return o
}

// Validate checks the parsed flags and resolves the sampling interval.
func (o *Options) Validate() error {
	if !(o.FaultRate >= 0 && o.FaultRate <= 1) { // also rejects NaN
		return fmt.Errorf("-fault-rate must be in [0,1], got %g", o.FaultRate)
	}
	if o.sampleText != "" {
		every, err := sim.ParseTime(o.sampleText)
		if err != nil {
			return fmt.Errorf("-sample-interval: %w", err)
		}
		if every < core.MinSampleInterval {
			return fmt.Errorf("-sample-interval must be at least %v, got %v", core.MinSampleInterval, every)
		}
		o.sampleEvery = every
	}
	if o.Series != "" && o.sampleEvery == 0 {
		return fmt.Errorf("-series requires -sample-interval")
	}
	return nil
}

// Fault is the fault-injection configuration every simulated system runs
// with; the zero value (injection off) when -fault-rate is 0.
func (o *Options) Fault() fault.Config {
	if o.FaultRate == 0 {
		return fault.Config{}
	}
	return fault.Config{Seed: o.FaultSeed, Rate: o.FaultRate}
}

// SampleInterval is the telemetry sampling interval every simulated system
// runs with; 0 (sampling off) without -sample-interval.
func (o *Options) SampleInterval() sim.Time { return o.sampleEvery }

// Events reports whether the runs must record their span streams.
func (o *Options) Events() bool { return o.Trace != "" || o.Flows != "" }

// Collect reports whether any export needs the runs' recorders.
func (o *Options) Collect() bool { return o.Events() || o.Series != "" || o.Metrics }

// StartCPUProfile starts a CPU profile written to path, if path is not
// empty (the -cpuprofile flag of every tool). The returned stop function is
// never nil; defer it so the profile is flushed on every exit path.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// Simulate runs fn and returns its error, turning a model panic surfacing
// from the simulation (a failed syscall under heavy fault injection, say)
// into an error as well.
func Simulate(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("simulation failed: %v", v)
		}
	}()
	return fn()
}

// Export writes every requested output from recs: the -trace, -flows and
// -series files, each with one report line on out, then the -metrics
// summary of each run, and last the -memprofile heap profile.
func (o *Options) Export(out io.Writer, recs []*trace.Recorder) error {
	var records, spans, series int
	for _, r := range recs {
		records += len(r.Spans())
		spans += r.CountFlowSpans()
		if sp := r.Sampler(); sp != nil {
			series += len(sp.Series())
		}
	}
	files := []struct {
		name, path, unit string
		n                int
		write            func(io.Writer, []*trace.Recorder) error
	}{
		{"trace", o.Trace, "spans", records, trace.WriteChrome},
		{"flows", o.Flows, "spans", spans, trace.WriteFlows},
		{"series", o.Series, "series", series, trace.WriteSeries},
	}
	for _, f := range files {
		if f.path == "" {
			continue
		}
		if err := writeFile(f.path, func(w io.Writer) error { return f.write(w, recs) }); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		fmt.Fprintf(out, "%-9s %d %s from %d run(s) -> %s\n", f.name+":", f.n, f.unit, len(recs), f.path)
	}
	if o.Metrics {
		for i, r := range recs {
			fmt.Fprintf(out, "--- run %d ---\n%s", i, r.Summary())
		}
	}
	if o.MemProfile != "" {
		// Collect first, so the profile reflects live objects rather than
		// garbage awaiting collection.
		runtime.GC()
		if err := writeFile(o.MemProfile, pprof.WriteHeapProfile); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first error
// of create, write and close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
