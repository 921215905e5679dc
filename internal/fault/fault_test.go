package fault

import (
	"testing"

	"m3v/internal/sim"
	"m3v/internal/trace"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if d, ok := in.Drop(1, 0, 0); ok || d != 0 {
		t.Fatal("nil injector drops")
	}
	if d := in.Delay(1, 0); d != 0 {
		t.Fatal("nil injector delays")
	}
	if in.Dup(1, 0) {
		t.Fatal("nil injector duplicates")
	}
	if in.FailCmd(1, 0, 0) {
		t.Fatal("nil injector fails commands")
	}
	if d, ok := in.CmdRetry(0); ok || d != 0 {
		t.Fatal("nil injector grants retries")
	}
	if d, ok := in.Stall(1, 0); ok || d != 0 {
		t.Fatal("nil injector stalls")
	}
	in.CountSend()
	in.DiscardGhost()
	in.TerminalDrop(1, 0, 0)
	in.EmitRetry(1, 0, 0, 0, 0)
	if in.NoCSends() != 0 || in.NoCDrops() != 0 || in.CmdRetries() != 0 {
		t.Fatal("nil injector counts")
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 7})
	for i := 0; i < 10000; i++ {
		if _, ok := in.Drop(1, 0, 0); ok {
			t.Fatal("rate-0 drop fired")
		}
		if in.Delay(1, 0) != 0 || in.Dup(1, 0) || in.FailCmd(1, 0, 0) {
			t.Fatal("rate-0 class fired")
		}
		if _, ok := in.Stall(1, 0); ok {
			t.Fatal("rate-0 stall fired")
		}
	}
	if in.decisions != 0 {
		t.Fatalf("rate-0 rolls consumed %d decisions", in.decisions)
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 3, Rate: 1.0})
	for i := 0; i < 100; i++ {
		if _, ok := in.Drop(1, 0, 0); !ok {
			t.Fatal("rate-1 drop missed")
		}
		if in.Delay(1, 0) == 0 {
			t.Fatal("rate-1 delay missed")
		}
		if !in.Dup(1, 0) || !in.FailCmd(1, 0, 0) {
			t.Fatal("rate-1 class missed")
		}
		if _, ok := in.Stall(1, 0); !ok {
			t.Fatal("rate-1 stall missed")
		}
	}
}

// rollStream draws n decisions of one class and returns the outcomes.
func rollStream(seed uint64, rate float64, n int) []bool {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: seed, Rate: rate})
	out := make([]bool, n)
	for i := range out {
		_, out[i] = in.Drop(1, 0, 0)
	}
	return out
}

func TestRollDeterminism(t *testing.T) {
	a := rollStream(42, 0.1, 5000)
	b := rollStream(42, 0.1, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical runs", i)
		}
	}
	c := rollStream(43, 0.1, 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestRollRateRoughlyHonored(t *testing.T) {
	for _, rate := range []float64{0.01, 0.05, 0.10, 0.5} {
		n := 20000
		hits := 0
		for _, f := range rollStream(99, rate, n) {
			if f {
				hits++
			}
		}
		got := float64(hits) / float64(n)
		if got < rate*0.7 || got > rate*1.3 {
			t.Errorf("rate %.2f: observed %.4f, outside ±30%%", rate, got)
		}
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 1, Rate: 0.5})
	base := 200 * sim.Nanosecond
	for attempt := 0; attempt < 10; attempt++ {
		d, ok := in.CmdRetry(attempt)
		if !ok {
			t.Fatalf("attempt %d: retry denied before retryMax", attempt)
		}
		want := base << uint(min(attempt, 6))
		if d != want {
			t.Fatalf("attempt %d: backoff %v, want %v", attempt, d, want)
		}
	}
	if _, ok := in.CmdRetry(12); ok {
		t.Fatal("retry granted past retryMax")
	}
	if in.CmdRetries() != 10 || in.CmdGiveups() != 1 {
		t.Fatalf("retry counters = %d/%d, want 10/1", in.CmdRetries(), in.CmdGiveups())
	}
}

func TestCountersAndSpans(t *testing.T) {
	eng := sim.NewEngine()
	eng.Tracer().Enable()
	in := New(eng, Config{Seed: 11, Rate: 1.0})
	in.CountSend()
	in.Drop(1, 2, 0)
	in.Delay(1, 2)
	in.Dup(1, 2)
	in.DiscardGhost()
	in.FailCmd(1, 2, 1)
	in.EmitRetry(1, 0, 100, 2, 0)
	in.Stall(1, 2)
	in.TerminalDrop(1, 2, 3)

	if in.NoCSends() != 1 || in.NoCDrops() != 1 || in.NoCDelays() != 1 ||
		in.NoCDups() != 1 || in.NoCDupDiscards() != 1 ||
		in.CmdFails() != 1 || in.MuxStalls() != 1 {
		t.Fatal("counter values wrong after one fault of each class")
	}
	rec := eng.Tracer()
	for _, n := range []trace.SpanName{
		trace.SpanFaultDelay, trace.SpanFaultDup,
		trace.SpanFaultCmdFail, trace.SpanFaultRetry, trace.SpanFaultStall,
	} {
		if rec.CountSpans(n) != 1 {
			t.Errorf("span %v count = %d, want 1", n, rec.CountSpans(n))
		}
	}
	if rec.CountSpans(trace.SpanFaultDrop) != 2 { // injected + terminal
		t.Errorf("fault.drop spans = %d, want 2", rec.CountSpans(trace.SpanFaultDrop))
	}
}

// TestUntracedFlowFaultsRecordFlowZero: faults on a packet of no traced
// message still count, and an enabled recorder keeps their spans on flow 0.
func TestUntracedFlowFaultsRecordFlowZero(t *testing.T) {
	eng := sim.NewEngine()
	eng.Tracer().Enable()
	in := New(eng, Config{Seed: 11, Rate: 1.0})
	in.Drop(0, 0, 0)
	in.Delay(0, 0)
	in.Stall(0, 0)
	spans := eng.Tracer().Spans()
	want := []trace.SpanName{trace.SpanFaultDrop, trace.SpanFaultDelay, trace.SpanFaultStall}
	if len(spans) != len(want) {
		t.Fatalf("flow-0 faults recorded %d spans, want %d", len(spans), len(want))
	}
	for i, s := range spans {
		if s.Flow != 0 || s.Name != want[i] {
			t.Errorf("span %d = %v on flow %d, want %v on flow 0", i, s.Name, s.Flow, want[i])
		}
	}
	if in.NoCDrops() != 1 || in.NoCDelays() != 1 || in.MuxStalls() != 1 {
		t.Fatal("flow-0 faults must still count")
	}
}

func TestConfigEnabledAndDefaults(t *testing.T) {
	if (Config{Seed: 7}).Enabled() {
		t.Fatal("zero-rate config enabled")
	}
	if !(Config{Rate: 0.01}).Enabled() {
		t.Fatal("nonzero-rate config disabled")
	}
	// The fixed recovery timing: delay and stall penalties, the first
	// retry backoff and the retry budget.
	in := New(sim.NewEngine(), Config{Seed: 1, Rate: 1})
	if d := in.Delay(1, 0); d != 500*sim.Nanosecond {
		t.Fatalf("delay penalty %v, want 500ns", d)
	}
	if d, _ := in.Stall(1, 0); d != 2*sim.Microsecond {
		t.Fatalf("stall %v, want 2us", d)
	}
	if d, _ := in.CmdRetry(0); d != 200*sim.Nanosecond {
		t.Fatalf("first backoff %v, want 200ns", d)
	}
	if _, ok := in.CmdRetry(11); !ok {
		t.Fatal("retry 11 denied, want a budget of 12")
	}
	if _, ok := in.CmdRetry(12); ok {
		t.Fatal("retry 12 granted, want a budget of 12")
	}
}
