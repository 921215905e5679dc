// m3vbench runs the reproduced experiments of the paper's evaluation and
// prints their tables, including the paper's published values side by side.
//
//	m3vbench                          # everything, sweep points fanned across all CPUs
//	m3vbench -run fig6                # one experiment: table1, sloc, fig6..fig10, voice
//	m3vbench -run fig9 -parallel 4    # cap the sweep worker pool at 4
//	m3vbench -run fig6 -trace t.json  # also dump one Chrome trace of all runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"m3v/internal/bench"
	"m3v/internal/cliflags"
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

// options are the parsed command-line settings.
type options struct {
	run        []bench.Experiment
	list       bool
	parallel   int
	fig9Series []int
	obs        *cliflags.Options
}

// parseOptions parses the command line. Split from run for CLI tests.
func parseOptions(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("m3vbench", flag.ContinueOnError)
	run := fs.String("run", "", "comma-separated experiment ids (default: all)")
	fs.BoolVar(&o.list, "list", false, "list experiment ids")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "worker count for independent sweep points (1 = serial)")
	fig9Tiles := fs.String("fig9-tiles", "", "override the fig9 tile-count series, e.g. 1,2,4 (smoke runs)")
	o.obs = cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.parallel < 1 {
		return nil, fmt.Errorf("-parallel must be >= 1, got %d", o.parallel)
	}
	if err := o.obs.Validate(); err != nil {
		return nil, err
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
	return bench.Params{Tiles: o.fig9Series, Fault: o.obs.Fault(), SampleInterval: o.obs.SampleInterval()}
}

// parseTiles parses a -fig9-tiles series like "1,2,4"; every entry must lie
// in the figure's range 1..bench.Fig9MaxTiles.
func parseTiles(s string) ([]int, error) {
	var tiles []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 || n > bench.Fig9MaxTiles {
			return nil, fmt.Errorf("bad -fig9-tiles entry %q (want 1..%d)", part, bench.Fig9MaxTiles)
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "m3vbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the experiments per the given command-line arguments,
// writing their tables and exports' report lines to out. Split from main
// for CLI tests.
func run(args []string, out io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.list {
		listExperiments(out)
		return nil
	}
	bench.SetParallelism(o.parallel)
	stopProfile, err := o.obs.StartCPUProfile()
	if err != nil {
		return err
	}
	defer stopProfile()
	// Experiments build their Systems internally; collect every recorder
	// created while they run via the global auto-register hook. Under
	// -parallel the registration order follows run completion, so exports
	// are ordered by (run, timestamp) with run indices assigned in
	// completion order rather than table order. The series and metrics
	// exports need the recorders too (metrics only — the span stream stays
	// off for them).
	if o.obs.Collect() {
		trace.ClearRegistered()
		trace.SetAutoRegister(true, o.obs.Events())
		defer trace.SetAutoRegister(false, false)
	}
	params := o.params()
	for _, e := range o.run {
		var r *bench.Result
		err := cliflags.Simulate(func() (err error) {
			r, err = e.Run(params, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(out, r)
	}
	return o.obs.Export(out, trace.Registered())
}
