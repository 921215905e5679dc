package sim

import (
	"testing"
)

// TestEngineSampling drives the recurring sampler event: ticks at the
// configured sim-time cadence, engine gauges published via the probe, and a
// bounded run (the recurring event keeps the queue non-empty forever).
func TestEngineSampling(t *testing.T) {
	e := NewEngine()
	busy := 0
	e.At(50*Nanosecond, func() { busy++ })
	e.At(950*Nanosecond, func() { busy++ })
	s := e.StartSampling(100 * Nanosecond)
	if s == nil {
		t.Fatal("StartSampling returned nil")
	}
	if again := e.StartSampling(100 * Nanosecond); again != s {
		t.Fatal("second StartSampling did not return the armed sampler")
	}
	if e.Tracer().Sampler() != s {
		t.Fatal("recorder does not expose the sampler")
	}
	// Two run segments: loop-dispatched event counts publish at loop exit,
	// so the second segment's ticks see the first segment's executions.
	e.RunUntil(550 * Nanosecond)
	e.RunUntil(Microsecond)
	if busy != 2 {
		t.Fatalf("model events executed %d times, want 2", busy)
	}
	// Ticks at 100ns..1000ns inclusive.
	if s.Samples() != 10 {
		t.Fatalf("sampler took %d ticks, want 10", s.Samples())
	}
	names := map[string]bool{}
	for _, sr := range s.Series() {
		names[sr.Name()] = true
	}
	for _, want := range []string{"sim.procs_ready", "sim.procs_parked",
		"sim.events_pending", "sim.events_executed"} {
		if !names[want] {
			t.Fatalf("series %q missing; have %v", want, names)
		}
	}
	// The second segment's ticks must have seen the first segment's
	// published executions (5 sampler ticks + 1 model event).
	var execTotal int64
	for _, sr := range s.Series() {
		if sr.Name() != "sim.events_executed" {
			continue
		}
		for i := 0; i < sr.Len(); i++ {
			_, v := sr.Sample(i)
			execTotal += v
		}
	}
	if execTotal < 6 {
		t.Fatalf("events_executed series summed to %d, want >= 6", execTotal)
	}

	e.StopSampling()
	if e.Tracer().Sampler() != nil {
		t.Fatal("StopSampling left the recorder's sampler set")
	}
}

// TestStartSamplingRejectsBadInterval pins the misuse panic.
func TestStartSamplingRejectsBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StartSampling(0) did not panic")
		}
	}()
	NewEngine().StartSampling(0)
}

// TestNoSamplerZeroCost: without StartSampling no sampler exists, no probe
// runs, and the engine's run loop stays allocation free — the telemetry
// layer costs nothing when disabled.
func TestNoSamplerZeroCost(t *testing.T) {
	e := NewEngine()
	if e.Tracer().Sampler() != nil {
		t.Fatal("fresh engine has a sampler")
	}
	var now Time
	if avg := testing.AllocsPerRun(100, func() {
		now += 10 * Nanosecond
		e.At(now, func() {})
		e.RunUntil(now)
	}); avg != 0 {
		t.Fatalf("unsampled run loop allocates %.1f/op, want 0", avg)
	}
	if g := e.Tracer().Metrics().Gauges(); len(g) != 0 {
		t.Fatalf("unsampled engine registered %d gauges, want 0", len(g))
	}
}

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want Time
	}{
		{"250ps", 250 * Picosecond},
		{"100ns", 100 * Nanosecond},
		{"1.5us", 1500 * Nanosecond},
		{"2µs", 2 * Microsecond},
		{"3ms", 3 * Millisecond},
		{"1s", Second},
		{"0.5s", 500 * Millisecond},
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseTime(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "100", "ns", "-5ns", "abcns", "10m"} {
		if _, err := ParseTime(bad); err == nil {
			t.Errorf("ParseTime(%q) succeeded, want error", bad)
		}
	}
}
