package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"m3v/internal/bench"
	"m3v/internal/fault"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// TestRegistryAgreement pins the -list output: exactly the shared
// registry's IDs, in registry order, and the canonical list itself. m3vd
// dispatches from the same table, so a drift here would split the CLI and
// the serving layer.
func TestRegistryAgreement(t *testing.T) {
	want := []string{"table1", "sloc", "fig6", "fig7", "fig8", "fig9", "voice", "fig10", "ablation"}
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	if got := strings.Fields(out.String()); !reflect.DeepEqual(got, want) {
		t.Errorf("-list = %v, want %v", got, want)
	}
	if ids := registryIDs(); !reflect.DeepEqual(ids, want) {
		t.Errorf("registry = %v, want %v", ids, want)
	}
}

// registryIDs lists the registry's IDs in run order.
func registryIDs() []string {
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestParseOptionsDefaults pins the default option values.
func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatalf("parseOptions(nil): %v", err)
	}
	if o.list || o.parallel != runtime.NumCPU() {
		t.Errorf("defaults = %+v", o)
	}
	if ids, want := runIDs(o), registryIDs(); !reflect.DeepEqual(ids, want) {
		t.Errorf("default run = %v, want every experiment %v", ids, want)
	}
	if p := o.params(); !reflect.DeepEqual(p, bench.Params{}) {
		t.Errorf("default params = %+v, want the zero value", p)
	}
	if o.fig9Series != nil {
		t.Errorf("fig9Series default = %v, want nil", o.fig9Series)
	}
	if o.obs.FaultSeed != 1 || o.obs.FaultRate != 0 {
		t.Errorf("fault defaults = seed %d rate %g, want 1/0", o.obs.FaultSeed, o.obs.FaultRate)
	}
}

// TestParseOptionsErrors covers the validation paths.
func TestParseOptionsErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"fig6"}, "unexpected arguments"},
		{"bad parallel", []string{"-parallel", "0"}, "-parallel must be >= 1"},
		{"bad tiles", []string{"-fig9-tiles", "1,x"}, "bad -fig9-tiles entry"},
		{"zero tile", []string{"-fig9-tiles", "0"}, "bad -fig9-tiles entry"},
		{"tile above range", []string{"-fig9-tiles", "1,13"}, `bad -fig9-tiles entry "13" (want 1..12)`},
		{"tile far above range", []string{"-fig9-tiles", "5000"}, `bad -fig9-tiles entry "5000" (want 1..12)`},
		// The shared flag rules are tested in internal/cliflags; this case
		// checks m3vbench applies them.
		{"series needs interval", []string{"-series", "s.json"}, "-series requires -sample-interval"},
		{"unknown experiment", []string{"-run", "table1,bogus"}, `unknown experiment "bogus"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseOptions(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseOptions(%v) err = %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestParseOptionsFig9Tiles checks the tile-series override parsing, the
// -run id resolution (given order, spaces trimmed), and the Params value
// both turn into.
func TestParseOptionsFig9Tiles(t *testing.T) {
	o, err := parseOptions([]string{"-fig9-tiles", "1, 2,4", "-run", "fig9, table1", "-fault-rate", "0.1", "-fault-seed", "7"})
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	if !reflect.DeepEqual(o.fig9Series, []int{1, 2, 4}) {
		t.Errorf("fig9Series = %v, want [1 2 4]", o.fig9Series)
	}
	if ids := runIDs(o); !reflect.DeepEqual(ids, []string{"fig9", "table1"}) || o.obs.FaultRate != 0.1 || o.obs.FaultSeed != 7 {
		t.Errorf("options = %+v", o)
	}
	want := bench.Params{Tiles: []int{1, 2, 4}, Fault: fault.Config{Seed: 7, Rate: 0.1}}
	if p := o.params(); !reflect.DeepEqual(p, want) {
		t.Errorf("params = %+v, want %+v", p, want)
	}
}

// TestListExperiments checks that every listed experiment resolves and
// that -list only lists: with -run it still prints the ids and runs nothing.
func TestListExperiments(t *testing.T) {
	var out, withRun strings.Builder
	listExperiments(&out)
	for _, id := range strings.Fields(out.String()) {
		if _, ok := bench.Lookup(id); !ok {
			t.Errorf("listed experiment %q has no driver", id)
		}
	}
	if err := run([]string{"-list", "-run", "fig6"}, &withRun); err != nil {
		t.Fatalf("run -list -run fig6: %v", err)
	}
	if withRun.String() != out.String() {
		t.Errorf("-list -run fig6 printed\n%s\nwant the id list\n%s", withRun.String(), out.String())
	}
}

// TestParseOptionsSched pins that the retired -sched flag is gone: the
// engine has one event queue, so the flag is an unknown-flag error.
func TestParseOptionsSched(t *testing.T) {
	_, err := parseOptions([]string{"-sched", "heap"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -sched") {
		t.Errorf("parseOptions(-sched heap) err = %v, want unknown flag", err)
	}
}

// runIDs lists the experiments o will run.
func runIDs(o *options) []string {
	var ids []string
	for _, e := range o.run {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestParseOptionsSampling covers the telemetry flags.
func TestParseOptionsSampling(t *testing.T) {
	o, err := parseOptions([]string{"-sample-interval", "100ns", "-series", "s.json"})
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	if o.obs.Series != "s.json" {
		t.Errorf("series file = %q", o.obs.Series)
	}
	if p := o.params(); p.SampleInterval != 100*sim.Nanosecond {
		t.Errorf("params sampling = %v", p.SampleInterval)
	}
}

// TestRunExports runs a sampled fig6 with every export on and checks each
// file parses with the reader its consumers use, all with the same number of
// runs.
func TestRunExports(t *testing.T) {
	defer bench.SetParallelism(bench.Parallelism())
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	flowsPath := filepath.Join(dir, "f.json")
	seriesPath := filepath.Join(dir, "s.json")
	var out strings.Builder
	if err := run([]string{"-run", "fig6", "-parallel", "1", "-sample-interval", "1us",
		"-trace", tracePath, "-flows", flowsPath, "-series", seriesPath}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "== fig6:") {
		t.Errorf("fig6 table missing:\n%s", out.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("trace: %v", err)
	}
	traceRuns := map[int]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "M" {
			traceRuns[ev.Pid/1000] = true
		}
	}

	f, err := os.Open(flowsPath)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := trace.ReadFlows(f)
	f.Close()
	if err != nil {
		t.Fatalf("flows: %v", err)
	}
	f, err = os.Open(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	series, err := trace.ReadSeries(f)
	f.Close()
	if err != nil {
		t.Fatalf("series: %v", err)
	}

	if runs := len(series.Runs); runs < 2 || len(flows) != runs {
		t.Errorf("runs: flows %d, series %d; want equal and >= 2", len(flows), runs)
	}
	// The Chrome trace has no lane for a run that recorded nothing (the
	// Linux reference engines), so compare against the runs with spans.
	spanRuns := map[int]bool{}
	for i, r := range flows {
		if len(r.Spans()) > 0 {
			spanRuns[i] = true
		}
	}
	if len(spanRuns) == 0 || !reflect.DeepEqual(traceRuns, spanRuns) {
		t.Errorf("runs in trace %v, runs with spans %v; want equal", traceRuns, spanRuns)
	}
	runsLine := fmt.Sprintf("from %d run(s) -> ", len(series.Runs))
	for _, path := range []string{tracePath, flowsPath, seriesPath} {
		if !strings.Contains(out.String(), runsLine+path+"\n") {
			t.Errorf("report missing %q line for %s:\n%s", runsLine, path, out.String())
		}
	}
}

// TestRunFaultRateOne checks that a model failure under injection is a
// clean error naming the experiment, not a crash.
func TestRunFaultRateOne(t *testing.T) {
	defer bench.SetParallelism(bench.Parallelism())
	var out strings.Builder
	err := run([]string{"-run", "fig6", "-parallel", "1", "-fault-rate", "1"}, &out)
	want := "fig6: simulation failed: kernel: mux request to tile 2 failed: dtu: transfer timed out"
	if err == nil || err.Error() != want {
		t.Errorf("run(-fault-rate 1) err = %v, want %q", err, want)
	}
}

// TestRunSlocOutsideModule checks that sloc run where the module's sources
// cannot be found is an error naming the experiment, not an empty table
// with exit 0.
func TestRunSlocOutsideModule(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out strings.Builder
	err = run([]string{"-run", "sloc"}, &out)
	if err == nil || !strings.HasPrefix(err.Error(), "sloc: ") {
		t.Errorf("run(-run sloc) outside the module: err = %v, want a sloc error", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q, want nothing", out.String())
	}
}
