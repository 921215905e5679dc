package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestSummaryEmpty pins the empty-registry, empty-stream output.
func TestSummaryEmpty(t *testing.T) {
	r := NewRecorder()
	if got := r.Summary(); got != "(no metrics)\n" {
		t.Fatalf("empty summary = %q, want %q", got, "(no metrics)\n")
	}
}

// TestSummaryDisabledRecorder: a disabled recorder drops spans, so the
// summary covers metrics only — no span table.
func TestSummaryDisabledRecorder(t *testing.T) {
	r := NewRecorder()
	r.EmitSpan(0, 0, SpanMuxIrq, 100, 100, 1, CompTileMux, PathNone, 2, 0, 0) // dropped: tracing is off
	r.Metrics().Counter("a.b").Inc()
	got := r.Summary()
	if !strings.Contains(got, "a.b") {
		t.Fatalf("summary lost the counter: %q", got)
	}
	if strings.Contains(got, "spans:") {
		t.Fatalf("disabled recorder reported spans: %q", got)
	}
}

// TestSummaryGaugesAndQuantiles: gauges render in their own table and
// histogram rows carry the sketch quantiles.
func TestSummaryGaugesAndQuantiles(t *testing.T) {
	r := NewRecorder()
	m := r.Metrics()
	m.Gauge("noc.inflight").Set(7)
	h := m.Histogram("dtu.cmd_time")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	got := r.Summary()
	for _, want := range []string{"gauge", "noc.inflight", "7", "p50", "p99"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary missing %q:\n%s", want, got)
		}
	}
}

// TestWriteChromeEmpty: a recorder with no spans and no sampler still
// produces valid JSON with an empty traceEvents array.
func TestWriteChromeEmpty(t *testing.T) {
	r := NewRecorder()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if evs := parseChrome(t, buf.Bytes()); len(evs) != 0 {
		t.Fatalf("empty recorder emitted %d entries", len(evs))
	}
}

// TestWriteFlowsZeroLength: spans that begin and end at the same instant
// survive the flows export round trip.
func TestWriteFlowsZeroLength(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	ref := r.BeginSpan(1, SpanRef(0), SpanDTUSend, 1000, 2, CompDTU)
	r.EndSpan(ref, 1000)
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteFlows: %v", err)
	}
	flows, err := ReadFlows(&buf)
	if err != nil {
		t.Fatalf("ReadFlows: %v", err)
	}
	if len(flows.Runs) != 1 || len(flows.Runs[0].Spans) != 1 {
		t.Fatalf("flows = %+v, want one run with one span", flows.Runs)
	}
	s := flows.Runs[0].Spans[0]
	if s.Dur() != 0 || s.End != s.At {
		t.Fatalf("zero-length span has dur %d (at %d, end %d)", s.Dur(), s.At, s.End)
	}
}
