package trace

import (
	"bytes"
	"encoding/json"
	"slices"
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

// flowSpans is what the flows file of r must hold: r's spans of a flow, in
// order, with parent refs renumbered to positions among them (a parent of
// flow 0 becomes no parent) and Arg2 left out.
func flowSpans(r *Recorder) []Span {
	pos := map[SpanRef]SpanRef{}
	var out []Span
	for i, s := range r.Spans() {
		if s.Flow == 0 {
			continue
		}
		out = append(out, s)
		pos[SpanRef(i+1)] = SpanRef(len(out))
		out[len(out)-1].Parent = pos[s.Parent]
		out[len(out)-1].Arg2 = 0
	}
	return out
}

// interleavedFixture is flowFixture with spans of flow 0 around and inside
// its flows, some of them parents, and Arg2 values on both kinds.
func interleavedFixture() *Recorder {
	r := NewRecorder()
	r.Enable()
	r.EmitSpan(0, 0, SpanMuxSwitch, 10, 40, 1, CompTileMux, PathNone, 1, 2, 3)
	f1 := r.MintFlow()
	root := r.BeginSpan(f1, 0, SpanDTUSend, 100, 0, CompDTU)
	x := r.BeginSpan(0, root, SpanNoCXfer, 105, 3, CompNoC)
	r.EmitSpan(0, x, SpanNoCQueue, 105, 107, 3, CompNoC, PathNone, 1, 0, 0)
	r.EndSpanArgs(x, 110, PathNone, 0, 1)
	r.EmitSpan(f1, root, SpanDTUTLB, 110, 110, 0, CompDTU, PathNone, 1, 0x1000, 7)
	r.EndSpanArgs(root, 400, PathNone, 3, 0)
	r.EmitSpan(f1, 0, SpanDTUDeliver, 250, 250, 1, CompDTU, PathFast, 5, 0, 0)
	f2 := r.MintFlow()
	root2 := r.BeginSpan(f2, 0, SpanDTUSend, 500, 0, CompDTU)
	r.EmitSpan(f2, root2, SpanNoCXfer, 510, 600, 1, CompNoC, PathNone, 0, 1, 0)
	r.EndSpanArgs(root2, 900, PathNone, 3, 0)
	r.EmitSpan(0, 0, SpanMuxIrq, 950, 950, 2, CompTileMux, PathNone, 1, 0, 0)
	r.EmitSpan(f2, 0, SpanKernForward, 950, 1200, 2, CompKernel, PathSlow, 0, 1, 0)
	r.EmitSpan(f2, 0, SpanDTUDeliver, 1180, 1180, 1, CompDTU, PathFast, 5, 0, 0)
	return r
}

// TestFlowsRoundTrip pins the m3vflows/v1 round trip: reading back what
// WriteFlows wrote gives one recorder per run holding exactly the runs'
// flow spans, renumbered.
func TestFlowsRoundTrip(t *testing.T) {
	recs := []*Recorder{flowFixture(), interleavedFixture(), NewRecorder()}
	var buf bytes.Buffer
	if err := WriteFlows(&buf, recs); err != nil {
		t.Fatalf("WriteFlows: %v", err)
	}
	got, err := ReadFlows(&buf)
	if err != nil {
		t.Fatalf("ReadFlows: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d runs, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if want := flowSpans(r); !slices.Equal(got[i].Spans(), want) {
			t.Errorf("run %d: read\n%+v\nwant\n%+v", i, got[i].Spans(), want)
		}
	}
	if probs := CheckFlows(got); len(probs) != 0 {
		t.Errorf("fixture not well-formed: %v", probs)
	}
}

// TestReadFlowsErrors pins that a document WriteFlows cannot have written
// is an error, not a recorder: a bad schema, an unknown name, component or
// path, a span without a name, an id that is not its position, and a span
// of flow 0.
func TestReadFlowsErrors(t *testing.T) {
	doc := func(spans string) string {
		return `{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` + spans + `]}]}`
	}
	const send = `{"flow":1,"id":1,"name":"dtu.send","comp":"dtu","tile":0,"at":100,"end":200}`
	if _, err := ReadFlows(strings.NewReader(doc(send))); err != nil {
		t.Fatalf("well-formed document: %v", err)
	}
	cases := []struct{ name, doc, want string }{
		{"not json", "not json", "parsing flow file"},
		{"bogus schema", `{"schema":"bogus/v0","runs":[]}`, `schema "bogus/v0"`},
		{"unknown name", doc(strings.Replace(send, "dtu.send", "dtu.bogus", 1)), `unknown span name "dtu.bogus"`},
		{"empty name", doc(strings.Replace(send, "dtu.send", "", 1)), `unknown span name ""`},
		{"no name", doc(strings.Replace(send, `"name":"dtu.send",`, "", 1)), "span at position 1 has no name"},
		{"unknown component", doc(strings.Replace(send, `"comp":"dtu"`, `"comp":"gpu"`, 1)), `unknown component "gpu"`},
		{"unknown path", doc(strings.Replace(send, `"tile"`, `"path":"medium","tile"`, 1)), `unknown path "medium"`},
		{"numeric name", doc(strings.Replace(send, `"dtu.send"`, "1", 1)), "cannot unmarshal number"},
		{"duplicate id", doc(send + "," + send), "span at position 2 (dtu.send) has id 1, want 2"},
		{"id zero", doc(strings.Replace(send, `"id":1`, `"id":0`, 1)), "has id 0, want 1"},
		{"flow zero", doc(strings.Replace(send, `"flow":1`, `"flow":0`, 1)), "span 1 (dtu.send) has flow 0"},
	}
	for _, tc := range cases {
		recs, err := ReadFlows(strings.NewReader(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadFlows = %v, %v; want an error containing %q", tc.name, recs, err, tc.want)
		}
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
	recs, err := ReadFlows(bytes.NewReader(with))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(recs[0].Spans()); n != 6 {
		t.Fatalf("flows file holds %d spans, want 6", n)
	}
	if probs := CheckFlows(recs); len(probs) != 0 {
		t.Errorf("flows file not well-formed: %v", probs)
	}
}

// TestWriteFlowsMatchesEncodingJSON pins the streaming writer to the bytes
// encoding/json makes of the same m3vflows/v1 document, including no runs
// at all, a run without flow spans, and spans whose omitempty members are
// set.
func TestWriteFlowsMatchesEncodingJSON(t *testing.T) {
	type flowSpan struct {
		Flow   uint64 `json:"flow"`
		ID     int32  `json:"id"`
		Parent int32  `json:"parent,omitempty"`
		Name   string `json:"name"`
		Comp   string `json:"comp"`
		Tile   int32  `json:"tile"`
		At     int64  `json:"at"`
		End    int64  `json:"end"`
		Path   string `json:"path,omitempty"`
		Arg0   int64  `json:"arg0,omitempty"`
		Arg1   int64  `json:"arg1,omitempty"`
	}
	type flowRun struct {
		Run   int        `json:"run"`
		Spans []flowSpan `json:"spans"`
	}
	type flowFile struct {
		Schema string    `json:"schema"`
		Runs   []flowRun `json:"runs"`
	}
	onlyZero := NewRecorder()
	onlyZero.Enable()
	onlyZero.EmitSpan(0, 0, SpanMuxIrq, 5, 5, 1, CompTileMux, PathNone, 2, 0, 0)
	for _, recs := range [][]*Recorder{nil, {onlyZero}, {flowFixture(), onlyZero, interleavedFixture()}} {
		var got bytes.Buffer
		if err := WriteFlows(&got, recs); err != nil {
			t.Fatal(err)
		}
		doc := flowFile{Schema: FlowSchema}
		for ri, r := range recs {
			run := flowRun{Run: ri, Spans: []flowSpan{}}
			for i, s := range flowSpans(r) {
				run.Spans = append(run.Spans, flowSpan{
					Flow: s.Flow, ID: int32(i + 1), Parent: int32(s.Parent),
					Name: s.Name.String(), Comp: s.Comp.String(), Tile: s.Tile,
					At: s.At, End: s.End, Path: s.Path.String(), Arg0: s.Arg0, Arg1: s.Arg1,
				})
			}
			doc.Runs = append(doc.Runs, run)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(doc); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%d runs: WriteFlows wrote\n%s\nencoding/json writes\n%s", len(recs), got.String(), want.String())
		}
	}
}

// TestCheckFlows pins each well-formedness rule individually.
func TestCheckFlows(t *testing.T) {
	base := func() []Span {
		return []Span{
			{Flow: 1, Name: SpanDTUSend, Comp: CompDTU, At: 100, End: 400},
			{Flow: 1, Parent: 1, Name: SpanDTUTLB, Comp: CompDTU, At: 110, End: 110},
			{Flow: 1, Name: SpanDTUDeliver, Comp: CompDTU, At: 250, End: 250, Path: PathFast},
		}
	}
	recs := func(spans []Span) []*Recorder { return []*Recorder{{spans: spans}} }
	if probs := CheckFlows(recs(base())); len(probs) != 0 {
		t.Fatalf("base fixture not well-formed: %v", probs)
	}

	cases := []struct {
		name string
		mut  func([]Span) []Span
		want string
	}{
		{"never ended", func(s []Span) []Span { s[0].End = -1; return s },
			"begun at 100 but never ended"},
		{"dangling parent", func(s []Span) []Span { s[1].Parent = 42; return s },
			"dangling parent 42"},
		{"self parent", func(s []Span) []Span { s[0].Parent = 1; return s },
			"dangling parent 1 (not an earlier span)"},
		{"later parent", func(s []Span) []Span { s[1].Parent = 3; return s },
			"dangling parent 3 (not an earlier span)"},
		{"negative parent", func(s []Span) []Span { s[1].Parent = -1; return s },
			"dangling parent -1"},
		{"cross-flow parent", func(s []Span) []Span { s[1].Flow = 2; return s },
			"different flow"},
		{"flow-0 parent", func(s []Span) []Span { s[0].Flow = 0; s[2].Parent = 1; return s },
			"span 3 (dtu.deliver, flow 1) has parent 1 of different flow 0"},
		{"child not enclosed", func(s []Span) []Span { s[1].End = 500; return s },
			"not enclosed by parent"},
		{"no verdict", func(s []Span) []Span { s[2].Path = PathNone; return s },
			"no fast/slow verdict"},
	}
	for _, tc := range cases {
		probs := CheckFlows(recs(tc.mut(base())))
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

	// Spans of flow 0 are not checked: an open one, or one with a
	// dangling parent, is no problem.
	zero := append(base(),
		Span{Name: SpanNoCXfer, Comp: CompNoC, At: 500, End: -1},
		Span{Parent: 9, Name: SpanMuxSwitch, Comp: CompTileMux, At: 500, End: 600})
	if probs := CheckFlows(recs(zero)); len(probs) != 0 {
		t.Errorf("flow-0 spans flagged: %v", probs)
	}
	// A failed send (err != 0) is exempt from the verdict rule.
	failed := []Span{
		{Flow: 1, Name: SpanDTUSend, Comp: CompDTU, At: 100, End: 150, Arg1: 4},
	}
	if probs := CheckFlows(recs(failed)); len(probs) != 0 {
		t.Errorf("failed send flagged: %v", probs)
	}
	// A kernel.forward flow must resolve even without a send root — but the
	// forward span itself is the slow mark, so only a markless one trips.
	forward := []Span{
		{Flow: 1, Name: SpanKernForward, Comp: CompKernel, At: 100, End: 150},
	}
	probs := CheckFlows(recs(forward))
	if len(probs) != 1 || !strings.Contains(probs[0], "no fast/slow verdict") {
		t.Errorf("markless forward flow: %v", probs)
	}
}

// TestAnalyzeFlows pins the latency attribution: self time excludes child
// durations, slow beats fast, and the dominant segment is per flow.
func TestAnalyzeFlows(t *testing.T) {
	r := interleavedFixture()
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
		t.Fatal(err)
	}
	read, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeFlows([]*Recorder{r})
	if got, want := AnalyzeFlows(read).Format(), rep.Format(); got != want {
		t.Errorf("report from the flows file:\n%s\nfrom the recorder:\n%s", got, want)
	}
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
	// dtu.send self time: flow 1 root 300 (the tlb child is instant, the
	// noc.xfer child of flow 0 does not count), flow 2 root 400 less its
	// 90 noc.xfer child => 610 total over 2 spans.
	if s := bySeg["dtu.send"]; s.Count != 2 || s.Self != 610 {
		t.Errorf("dtu.send stats = %+v", s)
	}
	if s := bySeg["kernel.forward"]; s.Self != 250 || s.DominantSlow != 0 {
		// dtu.send (310) dominates flow 2, so forward dominates nothing.
		t.Errorf("kernel.forward stats = %+v", s)
	}
	if s := bySeg["dtu.send"]; s.DominantFast != 1 || s.DominantSlow != 1 {
		t.Errorf("dtu.send dominance = %+v", s)
	}
	out := rep.Format()
	for _, want := range []string{"2 total, 1 fast, 1 slow", "dtu.send", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestWriteFlowsChrome pins the Perfetto export of a flows file read back
// into recorders: span slices and s/t/f flow arrows for multi-span flows.
func TestWriteFlowsChrome(t *testing.T) {
	r := flowFixture()
	var buf bytes.Buffer
	if err := WriteFlows(&buf, []*Recorder{r}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFlows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := WriteChrome(&out, recs); err != nil {
		t.Fatalf("WriteChrome: %v", err)
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
