package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3v/internal/trace"
)

// TestRunFlagValidation covers the argument errors of the CLI entry point.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"extra"}, "unexpected arguments"},
		{"zero rounds", []string{"-rounds", "0"}, "-rounds must be >= 1"},
		// The shared flag rules are tested in internal/cliflags; this case
		// checks m3vsim applies them.
		{"series needs interval", []string{"-series", "out.json"}, "-series requires -sample-interval"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) err = %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestRunSmoke runs a small fault-free simulation and checks the report.
func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-rounds", "5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"platform: fpga",
		"rounds:   5 no-op RPCs",
		"kernel syscalls:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "faults:") {
		t.Errorf("fault summary printed without injection:\n%s", got)
	}
}

// TestRunSampledSeries runs a sampled simulation and checks the series
// export is written, reported, and readable by the trace package.
func TestRunSampledSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.json")
	var out strings.Builder
	if err := run([]string{"-rounds", "5", "-shared",
		"-sample-interval", "100ns", "-series", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "series:") {
		t.Errorf("report missing series line:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("series file: %v", err)
	}
	defer f.Close()
	sf, err := trace.ReadSeries(f)
	if err != nil {
		t.Fatalf("ReadSeries: %v", err)
	}
	if sf.IntervalPs != 100_000 || len(sf.Runs) != 1 {
		t.Fatalf("interval/runs = %d/%d, want 100000/1", sf.IntervalPs, len(sf.Runs))
	}
	if len(sf.Runs[0].Series) == 0 || len(sf.Runs[0].Histograms) == 0 {
		t.Fatalf("empty series export: %d series, %d histograms",
			len(sf.Runs[0].Series), len(sf.Runs[0].Histograms))
	}
}

// TestRunTraceChrome decodes the -trace file of a sampled tile-local run
// with encoding/json and checks it against the run's recorder: one slice
// per span, name by name; one "s" and one "f" arrow step per flow of two or
// more spans; and process and thread names for every pid and lane used,
// counter tracks included.
func TestRunTraceChrome(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	trace.ClearRegistered()
	trace.SetAutoRegister(true, false)
	var out strings.Builder
	err := run([]string{"-rounds", "5", "-shared", "-sample-interval", "100ns", "-trace", path}, &out)
	trace.SetAutoRegister(false, false)
	recs := trace.Registered()
	trace.ClearRegistered()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d recorders registered, want 1", len(recs))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  *int   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	type lane struct{ pid, tid int }
	slices := map[string]int64{}
	steps := map[string]int{}
	procs, usedPids := map[int]bool{}, map[int]bool{}
	threads, usedLanes := map[lane]bool{}, map[lane]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" {
			if ev.Name == "process_name" {
				procs[ev.Pid] = true
			} else if ev.Tid != nil {
				threads[lane{ev.Pid, *ev.Tid}] = true
			}
			continue
		}
		switch ev.Ph {
		case "X", "i":
			slices[ev.Name]++
		case "s", "t", "f", "C":
			steps[ev.Ph]++
		default:
			t.Errorf("unexpected entry %+v", ev)
		}
		usedPids[ev.Pid] = true
		if ev.Tid != nil {
			usedLanes[lane{ev.Pid, *ev.Tid}] = true
		}
	}

	records := map[string]int64{}
	perFlow := map[uint64]int{}
	for _, s := range recs[0].Spans() {
		records[s.Name.String()]++
		if s.Flow != 0 {
			perFlow[s.Flow]++
		}
	}
	if len(records) == 0 || len(slices) != len(records) {
		t.Errorf("slice names %v, record names %v", slices, records)
	}
	for name, n := range records {
		if slices[name] != n {
			t.Errorf("%s: %d slices, %d records", name, slices[name], n)
		}
	}
	arrows := 0
	for _, n := range perFlow {
		if n >= 2 {
			arrows++
		}
	}
	if arrows == 0 || steps["s"] != arrows || steps["f"] != arrows {
		t.Errorf("arrow steps s=%d f=%d, want %d each (flows of two or more spans)",
			steps["s"], steps["f"], arrows)
	}
	if steps["C"] == 0 {
		t.Error("no counter tracks in a sampled run")
	}
	for pid := range usedPids {
		if !procs[pid] {
			t.Errorf("pid %d has no process_name", pid)
		}
	}
	for l := range usedLanes {
		if !threads[l] {
			t.Errorf("pid %d tid %d has no thread_name", l.pid, l.tid)
		}
	}
}

// TestRunFaultRateOne checks that a model failure under injection is a
// clean error, not a crash: at rate 1 the kernel's first mux request times
// out, deterministically for the seed.
func TestRunFaultRateOne(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-rounds", "5", "-fault-rate", "1"}, &out)
	want := "simulation failed: kernel: mux request to tile 1 failed: dtu: transfer timed out"
	if err == nil || err.Error() != want {
		t.Errorf("run(-fault-rate 1) err = %v, want %q", err, want)
	}
}

// TestRunChaosDeterminism runs the chaos smoke twice with the same seed and
// checks that the printed hashes are present and identical, and that the
// fault summary line appears.
func TestRunChaosDeterminism(t *testing.T) {
	runOnce := func() string {
		var out strings.Builder
		if err := run([]string{"-rounds", "5", "-fault-seed", "42", "-fault-rate", "0.05", "-trace-hash"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	a, b := runOnce(), runOnce()

	hashLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "trace-hash:") {
				return line
			}
		}
		t.Fatalf("no trace-hash line in output:\n%s", s)
		return ""
	}
	ha, hb := hashLine(a), hashLine(b)
	if ha != hb {
		t.Errorf("same seed, different hashes:\n%s\n%s", ha, hb)
	}
	if !strings.HasPrefix(ha, "trace-hash: 0x") {
		t.Errorf("hash line malformed: %s", ha)
	}
	if !strings.Contains(a, "faults:   seed 42 rate 0.05:") {
		t.Errorf("fault summary missing:\n%s", a)
	}
}

// TestRunTraceHashPinned pins the trace hashes of four runs
// (cross-tile, tile-local, fault-injected, and tile-local on the gem5
// platform), so the end-to-end dispatch order cannot drift.
func TestRunTraceHashPinned(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-rounds", "5", "-trace-hash"},
			"trace-hash: 0x94cb7b361b191b53"},
		{[]string{"-rounds", "5", "-shared", "-trace-hash"},
			"trace-hash: 0x1492cffd38b5da15"},
		{[]string{"-rounds", "5", "-fault-seed", "42", "-fault-rate", "0.05", "-trace-hash"},
			"trace-hash: 0xd7f4282db106768"},
		{[]string{"-rounds", "5", "-gem5", "-shared", "-trace-hash"},
			"trace-hash: 0xf065fea9db7b09f0"},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := run(c.args, &out); err != nil {
			t.Fatalf("run(%v): %v", c.args, err)
		}
		if !strings.Contains(out.String(), c.want+"\n") {
			t.Errorf("run(%v): want %q in output:\n%s", c.args, c.want, out.String())
		}
	}
}

// TestRunBadScheduler pins that the retired -sched flag is gone: the engine
// has one event queue, so the flag is an unknown-flag error.
func TestRunBadScheduler(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-sched", "heap"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -sched") {
		t.Errorf("run(-sched heap) err = %v, want unknown flag", err)
	}
}
