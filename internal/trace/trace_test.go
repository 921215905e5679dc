package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRecorderDisabledByDefault(t *testing.T) {
	r := NewRecorder()
	r.DTUCmd(10, 5, 1, CmdSend, 3, 64, 0)
	r.CtxSwitch(10, 5, 1, 2, 3, SwitchDispatch)
	if len(r.Events()) != 0 {
		t.Fatalf("disabled recorder stored %d events", len(r.Events()))
	}
	r.Enable()
	r.DTUCmd(10, 5, 1, CmdSend, 3, 64, 0)
	if len(r.Events()) != 1 {
		t.Fatalf("enabled recorder stored %d events, want 1", len(r.Events()))
	}
	r.Disable()
	r.Irq(20, 1, 0)
	if len(r.Events()) != 1 {
		t.Fatalf("re-disabled recorder stored %d events, want 1", len(r.Events()))
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{})
	r.DTUCmd(0, 0, 0, CmdSend, 0, 0, 0)
	r.CtxSwitch(0, 0, 0, 0, 0, SwitchYield)
	r.CoreReq(0, 0, KindCoreReqRaise, 0, 0)
	r.TLB(0, 0, KindTLBMiss, 0, 0)
	r.PageFault(0, 0, 0, 0, 0)
	r.Syscall(0, 0, 0, 0, 0)
	r.Irq(0, 0, 0)
	r.NoCPacket(0, 0, 0, 0, 0, true)
	r.ActExit(0, 0, 0, 0)
	r.Reset()
	if r.Enabled() || len(r.Events()) != 0 {
		t.Fatal("nil recorder must be inert")
	}
}

// TestDisabledEmitNoAlloc pins the tentpole requirement: the disabled
// tracer path performs zero allocations per emitted event.
func TestDisabledEmitNoAlloc(t *testing.T) {
	r := NewRecorder()
	if avg := testing.AllocsPerRun(1000, func() {
		r.DTUCmd(123, 456, 3, CmdReply, 7, 128, 0)
		r.CtxSwitch(123, 456, 3, 1, 2, SwitchPreempt)
		r.TLB(123, 3, KindTLBHit, 1, 0xdeadb000)
		r.NoCPacket(123, 40, 1, 2, 80, true)
	}); avg != 0 {
		t.Fatalf("disabled emit allocates %.1f objects per event batch, want 0", avg)
	}
	var nilRec *Recorder
	if avg := testing.AllocsPerRun(1000, func() {
		nilRec.DTUCmd(123, 456, 3, CmdReply, 7, 128, 0)
	}); avg != 0 {
		t.Fatalf("nil-recorder emit allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkTraceDisabled measures the per-event cost of the disabled
// tracer. Run with -benchmem: the acceptance bar is 0 allocs/op.
func BenchmarkTraceDisabled(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.DTUCmd(int64(i), 100, 3, CmdSend, 5, 64, 0)
	}
}

// BenchmarkTraceEnabled is the comparison point: the enabled path's
// amortized append cost.
func BenchmarkTraceEnabled(b *testing.B) {
	r := NewRecorder()
	r.Enable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.Events()) > 1<<20 {
			r.Reset()
		}
		r.DTUCmd(int64(i), 100, 3, CmdSend, 5, 64, 0)
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

func TestHashDistinguishesStreams(t *testing.T) {
	mk := func(arg int64) *Recorder {
		r := NewRecorder()
		r.Enable()
		r.DTUCmd(10, 5, 1, CmdSend, arg, 64, 0)
		r.Irq(20, 1, 2)
		return r
	}
	a, b, c := mk(1), mk(1), mk(2)
	if a.Hash() != b.Hash() {
		t.Fatal("identical streams hash differently")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different streams hash identically")
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.CtxSwitch(1000, 500, 2, 0xFFFD, 1, SwitchDispatch)
	r.DTUCmd(2000, 300, 2, CmdSend, 8, 64, 0)
	r.CoreReq(2500, 2, KindCoreReqRaise, 3, 1)
	r.TLB(3000, 2, KindTLBMiss, 1, 0x10000)
	r.PageFault(3100, 2, 1, 0x10000, 1)
	r.Syscall(4000, 800, 0, 2, 1)
	r.NoCPacket(4100, 60, 2, 0, 80, false)
	r.ActExit(5000, 0, 1, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	// 8 events + metadata entries.
	if len(parsed.TraceEvents) < 8 {
		t.Fatalf("traceEvents has %d entries, want >= 8", len(parsed.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		names[ev["name"].(string)] = true
		if _, ok := ev["ph"].(string); !ok {
			t.Fatalf("event missing ph: %v", ev)
		}
	}
	for _, want := range []string{"ctx_switch", "dtu_send", "core_req_raise",
		"tlb_miss", "page_fault", "syscall", "noc_packet", "act_exit",
		"process_name", "thread_name"} {
		if !names[want] {
			t.Errorf("trace is missing %q events (have %v)", want, names)
		}
	}
}

func TestWriteChromeMerged(t *testing.T) {
	a := NewRecorder()
	a.Enable()
	a.Irq(10, 1, 0)
	b := NewRecorder()
	b.Enable()
	b.Irq(20, 1, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{a, b}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "irq" {
			pids[ev.Pid] = true
		}
	}
	if !pids[1] || !pids[1001] {
		t.Fatalf("merged pids = %v, want tiles at 1 and 1001", pids)
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.Metrics().Counter("tile01.dtu.sends").Add(7)
	r.Metrics().Histogram("tile01.dtu.cmd_time").Observe(1500)
	r.CtxSwitch(1000, 500, 1, 2, 3, SwitchBlock)
	s := r.Summary()
	for _, want := range []string{"tile01.dtu.sends", "7", "ctx_switch", "cmd_time"} {
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
				r.CtxSwitch(int64(i)*1000, 500, w, int64(i), int64(i+1), SwitchBlock)
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
	// recorder must have all 100 events and a self-consistent hash.
	for i, r := range recs {
		if n := r.CountKind(KindCtxSwitch); n != 100 {
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
