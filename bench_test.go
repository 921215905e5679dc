package m3v_test

// Benchmark harness: one sub-benchmark per entry of the experiment registry
// (bench.Experiments), which holds every table and figure of the paper's
// evaluation (§6). Each runs the entry with the zero Params and reports the
// reproduced values as custom metrics; the printed tables also show the
// paper's published numbers side by side.
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Experiments/^fig6$' -benchtime 1x
//
// Wall-clock time measures the simulator, not the modelled system; the
// custom metrics carry the simulated results.

import (
	"strconv"
	"strings"
	"testing"

	"m3v/internal/bench"
	"m3v/internal/traces"
)

// report prints the experiment table and exports each row as a benchmark
// metric (metric units must not contain whitespace). Two distinct labels can
// collapse to the same metric name once spaces become underscores ("find 1"
// vs "find_1"); ReportMetric would then silently keep only the last value,
// so colliding names get a #index suffix to keep every row visible.
func report(b *testing.B, r *bench.Result) {
	b.Helper()
	b.Log("\n" + r.String())
	used := make(map[string]bool, len(r.Rows))
	for i, m := range r.Rows {
		name := strings.ReplaceAll(strings.TrimSpace(m.Label), " ", "_")
		unit := strings.ReplaceAll(m.Unit, " ", "_")
		metric := name + "(" + unit + ")"
		if used[metric] {
			metric = name + "#" + strconv.Itoa(i) + "(" + unit + ")"
			if used[metric] {
				b.Fatalf("metric name %q still collides after dedup", metric)
			}
		}
		used[metric] = true
		b.ReportMetric(m.Value, metric)
	}
}

// TestReportMetricCollisions pins the dedup: labels that only differ in
// whitespace ("find 1" vs "find_1") must still export as distinct metrics.
func TestReportMetricCollisions(t *testing.T) {
	r := &bench.Result{ID: "collide", Title: "metric-name collisions"}
	r.Add("find 1", 1, "runs/s", 0)
	r.Add("find_1", 2, "runs/s", 0)
	r.Add("plain", 3, "us", 0)
	res := testing.Benchmark(func(b *testing.B) { report(b, r) })
	for metric, want := range map[string]float64{
		"find_1(runs/s)":   1,
		"find_1#1(runs/s)": 2,
		"plain(us)":        3,
	} {
		if got, ok := res.Extra[metric]; !ok {
			t.Errorf("metric %q missing (got %v)", metric, res.Extra)
		} else if got != want {
			t.Errorf("metric %q = %v, want %v", metric, got, want)
		}
	}
}

// BenchmarkExperiments runs every registry experiment, one sub-benchmark
// per ID in registry order (BenchmarkExperiments/fig6 and so on).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := e.Run(bench.Params{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				report(b, r)
			}
		})
	}
}

// BenchmarkFig9FindOneTile is the single-tile slice of Figure 9 (fast):
// M³v should achieve about twice the throughput of M³x.
func BenchmarkFig9FindOneTile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m3v := bench.Fig9Point(false, 1, traces.Find)
		m3x := bench.Fig9Point(true, 1, traces.Find)
		b.ReportMetric(m3v, "M3v(runs/s)")
		b.ReportMetric(m3x, "M3x(runs/s)")
		b.ReportMetric(m3v/m3x, "speedup(x)")
	}
}
