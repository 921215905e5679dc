package main

import (
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
	if !strings.Contains(ha, "span-hash: 0x") {
		t.Errorf("hash line malformed: %s", ha)
	}
	if !strings.Contains(a, "faults:   seed 42 rate 0.05:") {
		t.Errorf("fault summary missing:\n%s", a)
	}
}

// TestRunTraceHashPinned pins the event and span hashes of three runs
// (cross-tile, tile-local, fault-injected), so the end-to-end dispatch
// order cannot drift.
func TestRunTraceHashPinned(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-rounds", "5", "-trace-hash"},
			"trace-hash: 0x7349d7c96eb6974b span-hash: 0x49c7a18dbd9c47e9"},
		{[]string{"-rounds", "5", "-shared", "-trace-hash"},
			"trace-hash: 0x119a1eb100574115 span-hash: 0xcec869dbc3985505"},
		{[]string{"-rounds", "5", "-fault-seed", "42", "-fault-rate", "0.05", "-trace-hash"},
			"trace-hash: 0xda95fcad8255c23b span-hash: 0x46dc1a54252a714a"},
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
