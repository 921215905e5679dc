package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// flowFixture builds a recorder holding one well-formed fast flow
// (send -> tlb child -> deliver) and one slow flow (send + kernel.forward).
func flowFixture() *Recorder {
	r := NewRecorder()
	r.Enable()

	f1 := r.MintFlow()
	root := r.BeginSpan(f1, 0, SpanDTUSend, 100, 0, CompDTU)
	r.EmitSpan(f1, root, SpanDTUTLB, 110, 110, 0, CompDTU, PathNone, 1, 0x1000, 0)
	r.EndSpanArgs(root, 400, PathNone, 3, 0)
	r.EmitSpan(f1, 0, SpanDTUDeliver, 250, 250, 1, CompDTU, PathFast, 5, 0, 0)

	f2 := r.MintFlow()
	root2 := r.BeginSpan(f2, 0, SpanDTUSend, 500, 0, CompDTU)
	r.EndSpanArgs(root2, 900, PathNone, 3, 0)
	r.EmitSpan(f2, 0, SpanKernForward, 950, 1200, 2, CompKernel, PathSlow, 0, 1, 0)
	r.EmitSpan(f2, 0, SpanDTUDeliver, 1180, 1180, 1, CompDTU, PathFast, 5, 0, 0)
	return r
}

// TestFlowsRoundTrip pins the m3vflows/v1 serialization.
func TestFlowsRoundTrip(t *testing.T) {
	r := flowFixture()
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteFlows: %v", err)
	}
	f, err := ReadFlows(&buf)
	if err != nil {
		t.Fatalf("ReadFlows: %v", err)
	}
	if f.Schema != FlowSchema || len(f.Runs) != 1 {
		t.Fatalf("schema %q, %d runs", f.Schema, len(f.Runs))
	}
	spans := f.Runs[0].Spans
	if len(spans) != len(r.Spans()) {
		t.Fatalf("round-trip %d spans, want %d", len(spans), len(r.Spans()))
	}
	if spans[0].Name != "dtu.send" || spans[0].ID != 1 || spans[0].Comp != "dtu" {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Parent != 1 {
		t.Errorf("tlb child parent = %d, want 1", spans[1].Parent)
	}
	if spans[3].Path != "" || spans[4].Path != "slow" {
		t.Errorf("paths = %q, %q", spans[3].Path, spans[4].Path)
	}
	if probs := CheckFlows(f); len(probs) != 0 {
		t.Errorf("fixture not well-formed: %v", probs)
	}

	// A wrong schema marker is rejected.
	if _, err := ReadFlows(strings.NewReader(`{"schema":"bogus/v0","runs":[]}`)); err == nil {
		t.Errorf("ReadFlows accepted a bogus schema")
	}
}

// TestWriteFlowsLeavesOutFlowZero pins that flow-0 spans, interleaved
// with a parented flow and with parents of their own, leave the flows file
// byte-identical to the same recorder's stream without them: WriteFlows
// drops them and renumbers IDs and parent refs.
func TestWriteFlowsLeavesOutFlowZero(t *testing.T) {
	write := func(withZero bool) []byte {
		r := NewRecorder()
		r.Enable()
		zero := func(at int64) {
			if withZero {
				x := r.BeginSpan(0, 0, SpanNoCXfer, at, 3, CompNoC)
				r.EmitSpan(0, x, SpanNoCQueue, at, at+2, 3, CompNoC, PathNone, 1, 0, 0)
				r.EndSpanArgs(x, at+5, PathNone, 0, 1)
				r.EmitSpan(0, 0, SpanMuxSwitch, at, at+4, 1, CompTileMux, PathNone, 1, 2, 0)
			}
		}
		zero(50)
		f := r.MintFlow()
		root := r.BeginSpan(f, 0, SpanDTUSend, 100, 0, CompDTU)
		zero(105)
		r.EmitSpan(f, root, SpanDTUTLB, 110, 110, 0, CompDTU, PathNone, 1, 0x1000, 2)
		xfer := r.BeginSpan(f, root, SpanNoCXfer, 120, 1, CompNoC)
		zero(125)
		r.EmitSpan(f, xfer, SpanNoCQueue, 120, 130, 1, CompNoC, PathNone, 0, 0, 0)
		r.EndSpanArgs(xfer, 200, PathNone, 0, 1)
		r.EmitSpan(f, 0, SpanDTUDeliver, 200, 200, 1, CompDTU, PathFast, 5, 0, 0)
		zero(250)
		r.EndSpanArgs(root, 300, PathNone, 3, 0)
		r.EmitSpan(f, 0, SpanDTUFetch, 310, 320, 1, CompDTU, PathNone, 5, 64, 0)
		zero(400)
		var buf bytes.Buffer
		if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	with, without := write(true), write(false)
	if !bytes.Equal(with, without) {
		t.Fatalf("flow-0 spans changed the flows file:\n%s\nwant\n%s", with, without)
	}
	f, err := ReadFlows(bytes.NewReader(with))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.Runs[0].Spans); n != 6 {
		t.Fatalf("flows file holds %d spans, want 6", n)
	}
	if probs := CheckFlows(f); len(probs) != 0 {
		t.Errorf("flows file not well-formed: %v", probs)
	}
}

// TestWriteFlowsMatchesEncodingJSON pins the streaming writer to the bytes
// encoding/json makes of the same FlowFile, including no runs at all, a run
// without flow spans, and spans whose omitempty members are set.
func TestWriteFlowsMatchesEncodingJSON(t *testing.T) {
	onlyZero := NewRecorder()
	onlyZero.Enable()
	onlyZero.EmitSpan(0, 0, SpanMuxIrq, 5, 5, 1, CompTileMux, PathNone, 2, 0, 0)
	for _, recs := range [][]*Recorder{nil, {onlyZero}, {flowFixture(), onlyZero, flowFixture()}} {
		var got bytes.Buffer
		if err := WriteFlows(&got, recs); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFlows(bytes.NewReader(got.Bytes()))
		if err != nil {
			t.Fatalf("%d runs: %v", len(recs), err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(f); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%d runs: WriteFlows wrote\n%s\nencoding/json writes\n%s", len(recs), got.String(), want.String())
		}
	}
}

// TestCheckFlows pins each well-formedness rule individually.
func TestCheckFlows(t *testing.T) {
	base := func() []FlowSpan {
		return []FlowSpan{
			{Flow: 1, ID: 1, Name: "dtu.send", Comp: "dtu", At: 100, End: 400},
			{Flow: 1, ID: 2, Parent: 1, Name: "dtu.tlb", Comp: "dtu", At: 110, End: 110},
			{Flow: 1, ID: 3, Name: "dtu.deliver", Comp: "dtu", At: 250, End: 250, Path: "fast"},
		}
	}
	file := func(spans []FlowSpan) *FlowFile {
		return &FlowFile{Schema: FlowSchema, Runs: []FlowRun{{Run: 0, Spans: spans}}}
	}
	if probs := CheckFlows(file(base())); len(probs) != 0 {
		t.Fatalf("base fixture not well-formed: %v", probs)
	}

	cases := []struct {
		name string
		mut  func([]FlowSpan) []FlowSpan
		want string
	}{
		{"never ended", func(s []FlowSpan) []FlowSpan { s[0].End = -1; return s },
			"begun at 100 but never ended"},
		{"dangling parent", func(s []FlowSpan) []FlowSpan { s[1].Parent = 42; return s },
			"dangling parent 42"},
		{"self parent", func(s []FlowSpan) []FlowSpan { s[0].Parent = 1; return s },
			"dangling parent 1 (not an earlier span)"},
		{"later parent", func(s []FlowSpan) []FlowSpan { s[1].Parent = 3; return s },
			"dangling parent 3 (not an earlier span)"},
		{"negative parent", func(s []FlowSpan) []FlowSpan { s[1].Parent = -1; return s },
			"dangling parent -1"},
		{"duplicate id", func(s []FlowSpan) []FlowSpan { s[2].ID = 2; return s },
			"span at position 3 (dtu.deliver) has id 2, want 3"},
		{"cross-flow parent", func(s []FlowSpan) []FlowSpan { s[1].Flow = 2; return s },
			"different flow"},
		{"child not enclosed", func(s []FlowSpan) []FlowSpan { s[1].End = 500; return s },
			"not enclosed by parent"},
		{"no verdict", func(s []FlowSpan) []FlowSpan { s[2].Path = ""; return s },
			"no fast/slow verdict"},
	}
	for _, tc := range cases {
		probs := CheckFlows(file(tc.mut(base())))
		found := false
		for _, p := range probs {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v, want one containing %q", tc.name, probs, tc.want)
		}
	}

	// A failed send (err != 0) is exempt from the verdict rule.
	failed := []FlowSpan{
		{Flow: 1, ID: 1, Name: "dtu.send", Comp: "dtu", At: 100, End: 150, Arg1: 4},
	}
	if probs := CheckFlows(file(failed)); len(probs) != 0 {
		t.Errorf("failed send flagged: %v", probs)
	}
	// A kernel.forward flow must resolve even without a send root — but the
	// forward span itself is the slow mark, so only a markless one trips.
	forward := []FlowSpan{
		{Flow: 1, ID: 1, Name: "kernel.forward", Comp: "kernel", At: 100, End: 150},
	}
	probs := CheckFlows(file(forward))
	if len(probs) != 1 || !strings.Contains(probs[0], "no fast/slow verdict") {
		t.Errorf("markless forward flow: %v", probs)
	}
}

// TestAnalyzeFlows pins the latency attribution: self time excludes child
// durations, slow beats fast, and the dominant segment is per flow.
func TestAnalyzeFlows(t *testing.T) {
	r := flowFixture()
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeFlows(f)
	if rep.Flows != 2 || rep.FastFlows != 1 || rep.SlowFlows != 1 || rep.NoVerdict != 0 {
		t.Errorf("verdicts: %d flows, %d fast, %d slow, %d none",
			rep.Flows, rep.FastFlows, rep.SlowFlows, rep.NoVerdict)
	}
	// Flow 1 spans [100,400], flow 2 spans [500,1200]: e2e 300 and 700.
	if rep.EndToEndMin != 300 || rep.Max != 700 || rep.EndToEndTotal != 1000 {
		t.Errorf("e2e min/max/total = %d/%d/%d, want 300/700/1000",
			rep.EndToEndMin, rep.Max, rep.EndToEndTotal)
	}
	bySeg := map[string]SegmentStats{}
	for _, s := range rep.Segments {
		bySeg[s.Name] = s
	}
	// dtu.send self time: flow 1 root 300 (tlb child is instant), flow 2
	// root 400 => 700 total over 2 spans.
	if s := bySeg["dtu.send"]; s.Count != 2 || s.Self != 700 {
		t.Errorf("dtu.send stats = %+v", s)
	}
	if s := bySeg["kernel.forward"]; s.Self != 250 || s.DominantSlow != 0 {
		// dtu.send (400) dominates flow 2, so forward dominates nothing.
		t.Errorf("kernel.forward stats = %+v", s)
	}
	if s := bySeg["dtu.send"]; s.DominantFast != 1 || s.DominantSlow != 1 {
		t.Errorf("dtu.send dominance = %+v", s)
	}
	out := AnalyzeFlows(f).Format()
	for _, want := range []string{"2 total, 1 fast, 1 slow", "dtu.send", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestWriteFlowsChrome pins the Perfetto export round trip: span slices and
// s/t/f flow arrows for multi-span flows.
func TestWriteFlowsChrome(t *testing.T) {
	r := flowFixture()
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteFlowsChrome(&out, f); err != nil {
		t.Fatalf("WriteFlowsChrome: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		`"ph":"s"`, `"ph":"t"`, `"ph":"f"`, `"bp":"e"`,
		`"id":"0.1"`, `"id":"0.2"`, `"dtu flows"`, `"dtu.send"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome export missing %s", want)
		}
	}
}
