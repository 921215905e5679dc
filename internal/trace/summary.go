package trace

import (
	"fmt"
	"strings"

	"m3v/internal/stats"
)

// Summary renders a plain-text report: the metrics registry (all counters
// and histogram summaries) followed by a per-name breakdown of the recorded
// span stream, built on the same table formatter the benchmark harness
// uses.
func (r *Recorder) Summary() string {
	var b strings.Builder
	b.WriteString(r.metrics.Summary())
	if n := len(r.Spans()); n > 0 {
		b.WriteByte('\n')
		b.WriteString(r.spanSummary())
	}
	return b.String()
}

// Summary renders the registry's counters, gauges, and histograms as
// aligned tables. Histogram rows include sketch quantiles (p50/p99), so the
// tail is visible without a series export.
func (m *Metrics) Summary() string {
	var b strings.Builder
	counters := m.Counters()
	if len(counters) > 0 {
		t := stats.NewTable("counter", "value")
		for _, c := range counters {
			t.AddRow(c.Name(), c.Value())
		}
		b.WriteString(t.String())
	}
	gauges := m.Gauges()
	if len(gauges) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		t := stats.NewTable("gauge", "value")
		for _, g := range gauges {
			t.AddRow(g.Name(), g.Value())
		}
		b.WriteString(t.String())
	}
	hists := m.Histograms()
	if len(hists) > 0 {
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		t := stats.NewTable("histogram", "count", "mean", "min", "p50", "p99", "max")
		for _, h := range hists {
			t.AddRow(h.Name(), h.Count(), fmtPs(int64(h.Mean())), fmtPs(h.Min()),
				fmtPs(h.Quantile(0.50)), fmtPs(h.Quantile(0.99)), fmtPs(h.Max()))
		}
		b.WriteString(t.String())
	}
	if b.Len() == 0 {
		return "(no metrics)\n"
	}
	return b.String()
}

// spanSummary tabulates the span stream per name with counts and total
// duration.
func (r *Recorder) spanSummary() string {
	var counts, durs [numSpanNames]int64
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name < numSpanNames {
			counts[s.Name]++
			durs[s.Name] += s.Dur()
		}
	}
	t := stats.NewTable("span", "count", "total time")
	for n := SpanName(0); n < numSpanNames; n++ {
		if counts[n] > 0 {
			t.AddRow(n.String(), counts[n], fmtPs(durs[n]))
		}
	}
	return fmt.Sprintf("spans: %d recorded\n%s", len(r.spans), t.String())
}

// fmtPs formats a picosecond quantity with an adaptive unit (mirrors
// sim.Time.String without importing sim).
func fmtPs(ps int64) string {
	switch {
	case ps < 0:
		return "-" + fmtPs(-ps)
	case ps < 1_000:
		return fmt.Sprintf("%dps", ps)
	case ps < 1_000_000:
		return fmt.Sprintf("%.3gns", float64(ps)/1e3)
	case ps < 1_000_000_000:
		return fmt.Sprintf("%.4gus", float64(ps)/1e6)
	case ps < 1_000_000_000_000:
		return fmt.Sprintf("%.4gms", float64(ps)/1e9)
	default:
		return fmt.Sprintf("%.4gs", float64(ps)/1e12)
	}
}
