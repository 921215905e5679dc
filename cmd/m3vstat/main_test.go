package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m3v/internal/trace"
)

// writeFixture samples a synthetic registry into a series file: one tile's
// busy-time counter ramping to saturation, a queue-depth gauge, and a
// latency histogram.
func writeFixture(t testing.TB) string {
	t.Helper()
	r := trace.NewRecorder()
	m := r.Metrics()
	busy := m.Counter("tile03.mux.busy_ps")
	depth := m.Gauge("noc.inflight")
	h := m.Histogram("tile03.mux.switch_time")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	s := trace.NewSampler(m, 1000)
	r.SetSampler(s)
	for tick := int64(1); tick <= 10; tick++ {
		// Ramp: idle for 5 ticks, then fully busy.
		if tick > 5 {
			busy.Add(1000)
		}
		depth.Set(tick)
		s.Sample(tick * 1000)
	}
	path := filepath.Join(t.TempDir(), "series.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteSeries(f, []*trace.Recorder{r}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunReport(t *testing.T) {
	path := writeFixture(t)
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"interval: 1ns, 1 run(s)",
		"-- utilization --",
		"tile03",
		"100.0%", // peak: the busy phase saturates the interval
		"-- queue depths --",
		"noc.inflight",
		"-- tail latency --",
		"tile03.mux.switch_time",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
	// Saturation onset: the first fully-busy window is the tick at 6000 ps.
	if !strings.Contains(got, "6ns") {
		t.Errorf("report missing saturation onset 6ns:\n%s", got)
	}
}

func TestRunCSV(t *testing.T) {
	path := writeFixture(t)
	var out strings.Builder
	if err := run([]string{"-csv", path}, &out); err != nil {
		t.Fatalf("run -csv: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "run,series,kind,t_ps,value" {
		t.Errorf("csv header = %q", lines[0])
	}
	// 2 series x 10 ticks.
	if len(lines) != 21 {
		t.Errorf("csv has %d lines, want 21", len(lines))
	}
	if !strings.Contains(out.String(), "0,noc.inflight,gauge,1000,1") {
		t.Errorf("csv missing first gauge row:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Errorf("run() err = %v, want usage", err)
	}
	if err := run([]string{"/nonexistent/series.json"}, &out); err == nil {
		t.Error("run(missing file) succeeded")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil ||
		!strings.Contains(err.Error(), "unsupported series schema") {
		t.Errorf("run(bad schema) err = %v, want unsupported schema", err)
	}
}
