package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"m3v/internal/bench"
	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// TestRegistryAgreement checks that the names m3vbench accepts are exactly
// the shared registry's IDs, in registry order, and pins the canonical
// list: m3vd dispatches from the same table, so a drift here would split
// the CLI and the serving layer.
func TestRegistryAgreement(t *testing.T) {
	want := []string{"table1", "sloc", "fig6", "fig7", "fig8", "fig9", "voice", "fig10", "ablation"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	reg := bench.Experiments()
	if len(reg) != len(order) {
		t.Fatalf("registry has %d entries, m3vbench accepts %d", len(reg), len(order))
	}
	for i, e := range reg {
		if order[i] != e.ID {
			t.Errorf("order[%d] = %q, registry %q", i, order[i], e.ID)
		}
		if e.Run == nil {
			t.Errorf("experiment %q has no driver", e.ID)
		}
	}
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
	if ids := runIDs(o); !reflect.DeepEqual(ids, order) {
		t.Errorf("default run = %v, want every experiment %v", ids, order)
	}
	if p := o.params(); !reflect.DeepEqual(p, bench.Params{}) {
		t.Errorf("default params = %+v, want the zero value", p)
	}
	if o.fig9Series != nil {
		t.Errorf("fig9Series default = %v, want nil", o.fig9Series)
	}
	if o.faultSeed != 1 || o.faultRate != 0 {
		t.Errorf("fault defaults = seed %d rate %g, want 1/0", o.faultSeed, o.faultRate)
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
		{"bad rate", []string{"-fault-rate", "2"}, "-fault-rate must be in [0,1]"},
		{"bad tiles", []string{"-fig9-tiles", "1,x"}, "bad -fig9-tiles entry"},
		{"zero tile", []string{"-fig9-tiles", "0"}, "bad -fig9-tiles entry"},
		{"bad interval", []string{"-sample-interval", "later"}, "-sample-interval"},
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
	if ids := runIDs(o); !reflect.DeepEqual(ids, []string{"fig9", "table1"}) || o.faultRate != 0.1 || o.faultSeed != 7 {
		t.Errorf("options = %+v", o)
	}
	want := bench.Params{Tiles: []int{1, 2, 4}, Fault: fault.Uniform(7, 0.1)}
	if p := o.params(); !reflect.DeepEqual(p, want) {
		t.Errorf("params = %+v, want %+v", p, want)
	}
}

// TestListExperiments checks the -list output covers every experiment in
// run order.
func TestListExperiments(t *testing.T) {
	var out strings.Builder
	listExperiments(&out)
	lines := strings.Fields(out.String())
	if !reflect.DeepEqual(lines, order) {
		t.Errorf("-list = %v, want %v", lines, order)
	}
	for _, id := range lines {
		if _, ok := bench.Lookup(id); !ok {
			t.Errorf("listed experiment %q has no driver", id)
		}
	}
}

// TestParseOptionsSched pins that the retired -sched flag is gone: the
// timing wheel is the only scheduler, so the flag is an unknown-flag error.
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

// TestLoadBenchReportV1 checks that a report of a retired schema version
// is a clean error: the v1 and v2 readers are gone, and their files lack
// fields the current report compares.
func TestLoadBenchReportV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{
  "schema": "m3vbench/v1",
  "timestamp": "2026-08-08T09:14:25Z",
  "go_version": "go1.24.0",
  "num_cpu": 1,
  "parallel": 1,
  "experiments": [
    {"id": "fig9", "title": "Scalability", "wall_ms": 6244.193,
     "rows": [{"label": "M3v find 1", "value": 87.7, "unit": "runs/s", "paper": 84}]}
  ],
  "total_wall_ms": 12601.35
}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchReport(path); err == nil ||
		!strings.Contains(err.Error(), `unsupported schema "m3vbench/v1"`) {
		t.Errorf("loadBenchReport(v1) err = %v, want unsupported schema", err)
	}
}

// TestParseOptionsSampling covers the telemetry flags.
func TestParseOptionsSampling(t *testing.T) {
	o, err := parseOptions([]string{"-sample-interval", "100ns", "-series", "s.json"})
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	if o.sampleEvery != 100*sim.Nanosecond || o.seriesFile != "s.json" {
		t.Errorf("sampling options = every %v, series %q", o.sampleEvery, o.seriesFile)
	}
	if p := o.params(); p.Sample != (core.SampleConfig{Interval: 100 * sim.Nanosecond}) {
		t.Errorf("params sampling = %+v", p.Sample)
	}
}

// TestLoadBenchReportV3RoundTrip writes a current-schema report with the
// tail-latency fields and reads it back.
func TestLoadBenchReportV3RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.json")
	want := benchReport{
		Schema:    benchSchema,
		GoVersion: "go1.24.0",
		NumCPU:    1,
		Parallel:  2,
		Experiments: []benchExperiment{{
			ID: "fig9", Title: "Scalability", WallMs: 5000,
			EventsExecuted: 2400000, EventsPerSec: 480000,
			P99SwitchPs: 8_750_000, P99CmdPs: 7_260_625,
			Rows: []benchRow{{Label: "M3v find 1", Value: 87.7, Unit: "runs/s"}},
		}},
		TotalWallMs: 5000,
	}
	data, err := json.MarshalIndent(&want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatalf("loadBenchReport(v3): %v", err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, &want)
	}
}

// TestTailLatencies checks the cross-recorder histogram merge behind the
// report's p99 fields.
func TestTailLatencies(t *testing.T) {
	a := trace.NewRecorder()
	b := trace.NewRecorder()
	for i := int64(1); i <= 50; i++ {
		a.Metrics().Histogram("tile01.mux.switch_time").Observe(i * 1000)
		b.Metrics().Histogram("tile02.mux.switch_time").Observe(i * 2000)
		a.Metrics().Histogram("tile01.dtu.cmd_time").Observe(i * 100)
	}
	p99Switch, p99Cmd := tailLatencies([]*trace.Recorder{a, b})
	// The merged switch distribution tops out near 100us; cmd near 5ns.
	if p99Switch < 90_000 || p99Switch > 100_000 {
		t.Errorf("p99Switch = %d, want ~99000 (error <= 1/16)", p99Switch)
	}
	if p99Cmd < 4_500 || p99Cmd > 5_000 {
		t.Errorf("p99Cmd = %d, want ~4950 (error <= 1/16)", p99Cmd)
	}
	if s, c := tailLatencies(nil); s != 0 || c != 0 {
		t.Errorf("tailLatencies(nil) = %d/%d, want 0/0", s, c)
	}
}

// TestLoadBenchReportBadSchema rejects every schema version but the
// current one.
func TestLoadBenchReportBadSchema(t *testing.T) {
	for _, schema := range []string{"m3vbench/v99", "m3vbench/v2", ""} {
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(`{"schema": "`+schema+`"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBenchReport(path); err == nil ||
			!strings.Contains(err.Error(), "unsupported schema") {
			t.Errorf("loadBenchReport(%q) err = %v, want unsupported schema", schema, err)
		}
	}
}

// TestPrintBaselineDelta checks the -baseline comparison output for both a
// matched experiment and one missing from the old report.
func TestPrintBaselineDelta(t *testing.T) {
	old := &benchReport{
		Schema:      benchSchema,
		Experiments: []benchExperiment{{ID: "fig9", WallMs: 1000}},
		TotalWallMs: 1000,
	}
	cur := &benchReport{
		Schema: benchSchema,
		Experiments: []benchExperiment{
			{ID: "fig9", WallMs: 800},
			{ID: "fig6", WallMs: 50},
		},
		TotalWallMs: 850,
	}
	var out strings.Builder
	printBaselineDelta(&out, old, cur)
	got := out.String()
	for _, want := range []string{
		"baseline fig9: 1000ms -> 800ms (-20.0%)",
		"baseline fig6: no previous wall clock",
		"baseline total (m3vbench/v3): 1000ms -> 850ms (-15.0%)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("baseline output missing %q:\n%s", want, got)
		}
	}
}
