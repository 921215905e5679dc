package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// emitSwitch records a flow-0 tilemux.switch span, the way TileMux does.
func emitSwitch(r *Recorder, at, dur int64, tile int, from, to int64, why SwitchReason) {
	r.EmitSpan(0, 0, SpanMuxSwitch, at, at+dur, tile, CompTileMux, PathNone, from, to, int64(why))
}

func TestRecorderDisabledByDefault(t *testing.T) {
	r := NewRecorder()
	r.EmitSpan(0, 0, SpanDTURead, 10, 15, 1, CompDTU, PathNone, 3, 64, 0)
	emitSwitch(r, 10, 5, 1, 2, 3, SwitchDispatch)
	if len(r.Spans()) != 0 {
		t.Fatalf("disabled recorder stored %d spans", len(r.Spans()))
	}
	r.Enable()
	r.EmitSpan(0, 0, SpanDTURead, 10, 15, 1, CompDTU, PathNone, 3, 64, 0)
	if len(r.Spans()) != 1 {
		t.Fatalf("enabled recorder stored %d spans, want 1", len(r.Spans()))
	}
	r.Disable()
	r.EmitSpan(0, 0, SpanMuxIrq, 20, 20, 1, CompTileMux, PathNone, 0, 0, 0)
	if len(r.Spans()) != 1 {
		t.Fatalf("re-disabled recorder stored %d spans, want 1", len(r.Spans()))
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.EmitSpan(0, 0, SpanDTURead, 0, 0, 0, CompDTU, PathNone, 0, 0, 0)
	emitSwitch(r, 0, 0, 0, 0, 0, SwitchYield)
	r.EndSpanArgs(r.BeginSpan(0, 0, SpanNoCXfer, 0, 0, CompNoC), 0, PathNone, 0, 0)
	r.Reset()
	if r.Enabled() || len(r.Spans()) != 0 || r.CountFlowSpans() != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// TestDisabledEmitNoAlloc pins the tentpole requirement: the disabled
// tracer path performs zero allocations per emitted span.
func TestDisabledEmitNoAlloc(t *testing.T) {
	r := NewRecorder()
	if avg := testing.AllocsPerRun(1000, func() {
		r.EmitSpan(0, 0, SpanDTURead, 123, 579, 3, CompDTU, PathNone, 7, 128, 0)
		emitSwitch(r, 123, 456, 3, 1, 2, SwitchPreempt)
		r.EmitSpan(0, 0, SpanDTUTLB, 123, 123, 3, CompDTU, PathNone, 1, 0xdeadb000, 1)
		r.EndSpanArgs(r.BeginSpan(0, 0, SpanNoCXfer, 123, 2, CompNoC), 163, PathNone, 0, 1)
	}); avg != 0 {
		t.Fatalf("disabled emit allocates %.1f objects per span batch, want 0", avg)
	}
	var nilRec *Recorder
	if avg := testing.AllocsPerRun(1000, func() {
		nilRec.EmitSpan(0, 0, SpanDTURead, 123, 579, 3, CompDTU, PathNone, 7, 128, 0)
	}); avg != 0 {
		t.Fatalf("nil-recorder emit allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkTraceDisabled measures the per-span cost of the disabled
// tracer. Run with -benchmem: the acceptance bar is 0 allocs/op.
func BenchmarkTraceDisabled(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EmitSpan(0, 0, SpanDTURead, int64(i), int64(i)+100, 3, CompDTU, PathNone, 5, 64, 0)
	}
}

// BenchmarkTraceEnabled is the comparison point: the enabled path's
// amortized append cost.
func BenchmarkTraceEnabled(b *testing.B) {
	r := NewRecorder()
	r.Enable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.Spans()) > 1<<20 {
			r.Reset()
		}
		r.EmitSpan(0, 0, SpanDTURead, int64(i), int64(i)+100, 3, CompDTU, PathNone, 5, 64, 0)
	}
}

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("tile00.dtu.sends")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := m.Counter("tile00.dtu.sends"); again != c {
		t.Fatal("Counter did not return the existing instance")
	}
	m.Counter("a.first")
	names := []string{}
	for _, c := range m.Counters() {
		names = append(names, c.Name())
	}
	if len(names) != 2 || names[0] != "a.first" || names[1] != "tile00.dtu.sends" {
		t.Fatalf("counters not sorted by name: %v", names)
	}
	var nilC *Counter
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	if m.Snapshot()["tile00.dtu.sends"] != 5 {
		t.Fatal("snapshot missing counter")
	}
}

func TestHistogram(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("dtu.cmd_time")
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, -5} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("min/max = %d/%d, want 0/1000", h.Min(), h.Max())
	}
	if h.Sum() != 1106 {
		t.Fatalf("sum = %d, want 1106", h.Sum())
	}
	bounds, counts := h.Buckets()
	if len(bounds) == 0 || len(bounds) != len(counts) {
		t.Fatalf("buckets malformed: %v %v", bounds, counts)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total != 7 {
		t.Fatalf("bucket total = %d, want 7", total)
	}
}

// TestHashDistinguishesStreams pins that flow-0 spans are part of the one
// hashed stream, down to their third arg.
func TestHashDistinguishesStreams(t *testing.T) {
	mk := func(why SwitchReason) *Recorder {
		r := NewRecorder()
		r.Enable()
		r.EmitSpan(r.MintFlow(), 0, SpanDTUSend, 10, 15, 1, CompDTU, PathNone, 3, 0, 0)
		emitSwitch(r, 20, 5, 1, 2, 3, why)
		return r
	}
	a, b, c := mk(SwitchBlock), mk(SwitchBlock), mk(SwitchYield)
	if a.Hash() != b.Hash() {
		t.Fatal("identical streams hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("streams differing in a flow-0 span's arg2 hash identically")
	}
}

// chromeEntry is the part of a Chrome trace entry the tests inspect.
type chromeEntry struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args struct {
		Name  string `json:"name"`
		Flow  uint64 `json:"flow"`
		Arg2  int64  `json:"arg2"`
		Path  string `json:"path"`
		Value int64  `json:"value"`
	} `json:"args"`
}

// parseChrome decodes a Chrome trace written by WriteChrome.
func parseChrome(t *testing.T, data []byte) []chromeEntry {
	t.Helper()
	var f struct {
		TraceEvents     []chromeEntry `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", f.DisplayTimeUnit)
	}
	return f.TraceEvents
}

// TestWriteChromeValidJSON pins the entry shapes: flow-0 spans on the
// component lanes (instants when zero-length), flow spans as slices on the
// flows lanes, exact microsecond timestamps, and lane metadata.
func TestWriteChromeValidJSON(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	emitSwitch(r, 1000, 500, 2, 0xFFFD, 1, SwitchBlock)
	r.EmitSpan(0, 0, SpanMuxPageFault, 3100, 3100, 2, CompTileMux, PathNone, 1, 0x10000, 1)
	f := r.MintFlow()
	r.EmitSpan(f, 0, SpanDTUDeliver, 1234567, 1234567, 0, CompDTU, PathFast, 5, 0, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	byName := map[string]chromeEntry{}
	threads := map[string]bool{}
	for _, ev := range parseChrome(t, buf.Bytes()) {
		byName[ev.Name] = ev
		if ev.Name == "thread_name" {
			threads[ev.Args.Name] = true
		}
	}
	sw := byName["tilemux.switch"]
	if sw.Ph != "X" || sw.Ts != 0.001 || sw.Dur != 0.0005 || sw.Pid != 2 ||
		sw.Tid != 1+int(CompTileMux) || sw.Args.Flow != 0 || sw.Args.Arg2 != int64(SwitchBlock) {
		t.Errorf("tilemux.switch entry = %+v", sw)
	}
	if pf := byName["tilemux.page_fault"]; pf.Ph != "i" || pf.Ts != 0.0031 {
		t.Errorf("tilemux.page_fault entry = %+v, want an instant at 0.0031us", pf)
	}
	dl := byName["dtu.deliver"]
	if dl.Ph != "X" || dl.Ts != 1.234567 || dl.Dur != 0.001 || dl.Args.Flow != f ||
		dl.Args.Path != "fast" || dl.Tid != 1+int(numComponents)+int(CompDTU) {
		t.Errorf("dtu.deliver entry = %+v", dl)
	}
	if byName["process_name"].Name == "" || !threads["tilemux"] || !threads["dtu flows"] {
		t.Errorf("lane metadata missing: threads %v", threads)
	}
}

func TestWriteChromeMerged(t *testing.T) {
	a := NewRecorder()
	a.Enable()
	a.EmitSpan(0, 0, SpanMuxIrq, 10, 10, 1, CompTileMux, PathNone, 0, 0, 0)
	b := NewRecorder()
	b.Enable()
	b.EmitSpan(0, 0, SpanMuxIrq, 20, 20, 1, CompTileMux, PathNone, 0, 0, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{a, b}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	pids := map[int]bool{}
	procs := map[string]bool{}
	for _, ev := range parseChrome(t, buf.Bytes()) {
		switch ev.Name {
		case "tilemux.irq":
			pids[ev.Pid] = true
		case "process_name":
			procs[ev.Args.Name] = true
		}
	}
	if !pids[1] || !pids[1001] {
		t.Fatalf("merged pids = %v, want tiles at 1 and 1001", pids)
	}
	if !procs["sys0 tile 1"] || !procs["sys1 tile 1"] {
		t.Fatalf("merged process names = %v", procs)
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.Metrics().Counter("tile01.dtu.sends").Add(7)
	r.Metrics().Histogram("tile01.dtu.cmd_time").Observe(1500)
	emitSwitch(r, 1000, 500, 1, 2, 3, SwitchBlock)
	s := r.Summary()
	for _, want := range []string{"tile01.dtu.sends", "7", "spans: 1 recorded", "tilemux.switch", "500ps", "cmd_time"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestAutoRegister(t *testing.T) {
	ClearRegistered()
	SetAutoRegister(true, true)
	r := NewRecorder()
	SetAutoRegister(false, false)
	defer ClearRegistered()
	if !r.Enabled() {
		t.Fatal("auto-registered recorder should start enabled")
	}
	found := false
	for _, got := range Registered() {
		if got == r {
			found = true
		}
	}
	if !found {
		t.Fatal("recorder not in global registry")
	}
	if after := NewRecorder(); after.Enabled() {
		t.Fatal("recorder created after SetAutoRegister(false) should be disabled")
	}
}

// TestAutoRegisterConcurrent exercises the global registry from many
// goroutines at once, the way a parallel experiment sweep creates recorders.
// Run under -race this pins down that registration, emission into distinct
// recorders, and hashing are data-race free.
func TestAutoRegisterConcurrent(t *testing.T) {
	ClearRegistered()
	SetAutoRegister(true, true)
	defer func() {
		SetAutoRegister(false, false)
		ClearRegistered()
	}()
	const workers = 8
	hashes := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRecorder()
			for i := 0; i < 100; i++ {
				emitSwitch(r, int64(i)*1000, 500, w, int64(i), int64(i+1), SwitchBlock)
				r.Metrics().Counter("tile00.mux.switches").Add(1)
			}
			hashes[w] = r.Hash()
		}(w)
	}
	wg.Wait()
	recs := Registered()
	if len(recs) != workers {
		t.Fatalf("registered %d recorders, want %d", len(recs), workers)
	}
	// Every worker emitted the same stream apart from the tile id; each
	// recorder must have all 100 spans and a self-consistent hash.
	for i, r := range recs {
		if n := r.CountSpans(SpanMuxSwitch); n != 100 {
			t.Errorf("recorder %d: %d ctx switches, want 100", i, n)
		}
		if got, again := r.Hash(), r.Hash(); got != again {
			t.Errorf("recorder %d: hash not stable: %#x vs %#x", i, got, again)
		}
	}
	for w, h := range hashes {
		if h == 0 {
			t.Errorf("worker %d produced zero hash", w)
		}
	}
}
