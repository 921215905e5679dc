package trace

import (
	"strings"
	"testing"
)

// TestSpanNilRecorder pins the nil-safety contract: every span helper on a
// nil recorder is a no-op, so model code never guards emission sites.
func TestSpanNilRecorder(t *testing.T) {
	var r *Recorder
	if f := r.MintFlow(); f != 0 {
		t.Errorf("nil MintFlow = %d, want 0", f)
	}
	ref := r.BeginSpan(1, 0, SpanDTUSend, 10, 0, CompDTU)
	if ref != 0 {
		t.Errorf("nil BeginSpan = %d, want 0", ref)
	}
	r.EndSpan(ref, 20)
	r.EndSpanArgs(ref, 20, PathFast, 1, 2)
	r.EmitSpan(1, 0, SpanDTUDeliver, 10, 10, 0, CompDTU, PathFast, 0, 0, 0)
	if got := r.Spans(); got != nil {
		t.Errorf("nil Spans = %v, want nil", got)
	}
	if h := r.Hash(); h == 0 {
		t.Errorf("nil Hash = 0, want FNV offset basis")
	}
	if n := r.CountSpans(SpanDTUSend); n != 0 {
		t.Errorf("nil CountSpans = %d, want 0", n)
	}
}

// TestSpanDisabledNoAllocs pins the //m3v:noalloc contract of the span
// fast path: with tracing disabled, emission costs zero allocations.
func TestSpanDisabledNoAllocs(t *testing.T) {
	r := NewRecorder()
	if allocs := testing.AllocsPerRun(1000, func() {
		flow := r.MintFlow()
		ref := r.BeginSpan(flow, 0, SpanDTUSend, 10, 0, CompDTU)
		r.EndSpanArgs(ref, 20, PathNone, 3, 0)
		r.EndSpan(ref, 20)
		r.EmitSpan(flow, 0, SpanDTUDeliver, 15, 15, 1, CompDTU, PathFast, 0, 0, 0)
	}); allocs != 0 {
		t.Errorf("disabled span emission allocates %.1f per run, want 0", allocs)
	}
	if len(r.Spans()) != 0 {
		t.Errorf("disabled recorder stored %d spans, want 0", len(r.Spans()))
	}
	// A nil recorder's fast path is allocation-free too.
	var nr *Recorder
	if allocs := testing.AllocsPerRun(1000, func() {
		flow := nr.MintFlow()
		ref := nr.BeginSpan(flow, 0, SpanDTUSend, 10, 0, CompDTU)
		nr.EndSpan(ref, 20)
	}); allocs != 0 {
		t.Errorf("nil span emission allocates %.1f per run, want 0", allocs)
	}
}

// TestSpanFlowZeroRecorded pins that an enabled recorder keeps spans of
// flow 0 (no message) like any other, and that they are no flow spans.
func TestSpanFlowZeroRecorded(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	ref := r.BeginSpan(0, 0, SpanNoCXfer, 10, 0, CompNoC)
	if ref != 1 {
		t.Errorf("BeginSpan(flow 0) = %d, want 1", ref)
	}
	r.EndSpanArgs(ref, 40, PathNone, 0, 1)
	r.EmitSpan(0, 0, SpanMuxSwitch, 50, 60, 0, CompTileMux, PathNone, 1, 2, int64(SwitchYield))
	spans := r.Spans()
	if len(spans) != 2 || spans[0].End != 40 || spans[1].Arg2 != int64(SwitchYield) {
		t.Errorf("flow-0 spans = %+v", spans)
	}
	if n := r.CountFlowSpans(); n != 0 {
		t.Errorf("CountFlowSpans = %d, want 0", n)
	}
}

// TestSpanBeginEnd exercises the enabled path: parenting, stamps, args,
// and the stale/zero-ref no-ops.
func TestSpanBeginEnd(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	flow := r.MintFlow()
	if flow != 1 {
		t.Fatalf("first MintFlow = %d, want 1", flow)
	}
	if f2 := r.MintFlow(); f2 != 2 {
		t.Fatalf("second MintFlow = %d, want 2", f2)
	}
	root := r.BeginSpan(flow, 0, SpanDTUSend, 100, 2, CompDTU)
	child := r.BeginSpan(flow, root, SpanDTUTLB, 110, 2, CompDTU)
	r.EndSpan(child, 110)
	r.EndSpanArgs(root, 300, PathNone, 3, 0)

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	s := spans[0]
	if s.Flow != flow || s.Name != SpanDTUSend || s.At != 100 || s.End != 300 ||
		s.Parent != 0 || s.Arg0 != 3 || s.Tile != 2 {
		t.Errorf("root span = %+v", s)
	}
	if s.Dur() != 200 {
		t.Errorf("root Dur = %d, want 200", s.Dur())
	}
	c := spans[1]
	if c.Parent != root || c.Name != SpanDTUTLB || c.At != 110 || c.End != 110 {
		t.Errorf("child span = %+v", c)
	}

	// Zero and out-of-range refs are ignored, not panics.
	r.EndSpan(0, 999)
	r.EndSpan(SpanRef(99), 999)
	r.EndSpanArgs(-1, 999, PathSlow, 0, 0)
	if got := r.Spans()[0].End; got != 300 {
		t.Errorf("stray EndSpan changed root End to %d", got)
	}

	if n := r.CountSpans(SpanDTUSend); n != 1 {
		t.Errorf("CountSpans(dtu.send) = %d, want 1", n)
	}

	r.Reset()
	if len(r.Spans()) != 0 {
		t.Errorf("Reset left %d spans", len(r.Spans()))
	}
	if f := r.MintFlow(); f != 3 {
		t.Errorf("MintFlow after Reset = %d, want 3 (sequence not reset)", f)
	}
}

// TestSpanHash pins that the hash covers every span field that matters.
func TestSpanHash(t *testing.T) {
	mk := func(end int64, path Path) *Recorder {
		r := NewRecorder()
		r.Enable()
		f := r.MintFlow()
		ref := r.BeginSpan(f, 0, SpanDTUSend, 100, 2, CompDTU)
		r.EndSpanArgs(ref, end, path, 3, 0)
		return r
	}
	a, b := mk(300, PathNone), mk(300, PathNone)
	if a.Hash() != b.Hash() {
		t.Errorf("identical streams hash differently")
	}
	if a.Hash() == mk(301, PathNone).Hash() {
		t.Errorf("End change not reflected in Hash")
	}
	if a.Hash() == mk(300, PathSlow).Hash() {
		t.Errorf("Path change not reflected in Hash")
	}
	if a.Hash() == NewRecorder().Hash() {
		t.Errorf("empty stream hashes like a populated one")
	}
}

// TestSpanNames pins the name table: every real SpanName has a non-empty
// component.noun rendering (the spanname analyzer enforces the convention
// at lint time; this keeps String() total).
func TestSpanNames(t *testing.T) {
	for n := SpanName(1); n < numSpanNames; n++ {
		s := n.String()
		if s == "" || !strings.Contains(s, ".") {
			t.Errorf("SpanName(%d).String() = %q, want component.noun", n, s)
		}
	}
	if SpanNone.String() != "" {
		t.Errorf("SpanNone renders %q, want empty", SpanNone.String())
	}
}
