package core

import (
	"strings"
	"testing"

	"m3v/internal/sim"
)

// runSampledRPC is runTracedRPC's tile-local run with a sampling interval
// (0 for off).
func runSampledRPC(t *testing.T, every sim.Time, n int) *System {
	t.Helper()
	cfg := FPGAConfig()
	cfg.SampleInterval = every
	return runTracedRPC(t, cfg, true, n)
}

// TestSamplingDisabledBitIdentical pins the zero-cost-when-disabled
// contract: a system built with a zero SampleInterval arms no sampler and
// produces exactly the span stream of the pre-telemetry code path — run twice, the hashes must match, and they must match a run that
// never mentions sampling at all (runTracedRPC).
func TestSamplingDisabledBitIdentical(t *testing.T) {
	plain := runTracedRPC(t, FPGAConfig(), true, 10)
	defer plain.Shutdown()
	off := runSampledRPC(t, 0, 10)
	defer off.Shutdown()
	if off.Eng.Tracer().Sampler() != nil {
		t.Fatal("zero SampleInterval armed a sampler")
	}
	pr, or := plain.Eng.Tracer(), off.Eng.Tracer()
	if pr.Hash() != or.Hash() || len(pr.Spans()) != len(or.Spans()) {
		t.Errorf("disabled-sampling trace diverges from plain: %d spans/%#x vs %d spans/%#x",
			len(pr.Spans()), pr.Hash(), len(or.Spans()), or.Hash())
	}
}

// TestSamplingDoesNotPerturbTrace: sampler ticks emit no spans, so a
// fault-free run with sampling ON must produce the same trace hash as one
// with sampling OFF — telemetry observes the
// simulation without changing it.
func TestSamplingDoesNotPerturbTrace(t *testing.T) {
	off := runSampledRPC(t, 0, 10)
	defer off.Shutdown()
	on := runSampledRPC(t, 100*sim.Nanosecond, 10)
	defer on.Shutdown()
	offR, onR := off.Eng.Tracer(), on.Eng.Tracer()
	if offR.Hash() != onR.Hash() || len(offR.Spans()) != len(onR.Spans()) {
		t.Errorf("sampling perturbed the span stream: %d spans/%#x vs %d spans/%#x",
			len(offR.Spans()), offR.Hash(), len(onR.Spans()), onR.Hash())
	}
}

// TestSamplingCollectsSeries checks the telemetry a sampled system run
// yields: ticks were taken, the engine/NoC/DTU/TileMux gauges produced
// series, and the per-tile busy-time counter sampled into a utilization
// timeline with a nonzero busy share on the worked tile.
func TestSamplingCollectsSeries(t *testing.T) {
	sys := runSampledRPC(t, 100*sim.Nanosecond, 10)
	defer sys.Shutdown()
	sp := sys.Eng.Tracer().Sampler()
	if sp == nil {
		t.Fatal("no sampler armed")
	}
	if sp.Samples() == 0 {
		t.Fatal("sampler took no ticks")
	}
	names := map[string]bool{}
	var busyTotal int64
	for _, sr := range sp.Series() {
		names[sr.Name()] = true
		if strings.HasSuffix(sr.Name(), ".mux.busy_ps") {
			for i := 0; i < sr.Len(); i++ {
				_, v := sr.Sample(i)
				busyTotal += v
			}
		}
	}
	for _, want := range []string{
		"sim.procs_ready", "sim.events_pending", "noc.inflight",
		"noc.router00.backlog_ps", "tile01.dtu.core_req_depth",
		"tile01.dtu.occupied_slots", "tile01.mux.runnable",
		"tile01.mux.pending_wakeups", "tile01.mux.busy_ps",
	} {
		if !names[want] {
			t.Fatalf("series %q missing; have %d series", want, len(names))
		}
	}
	if busyTotal == 0 {
		t.Fatal("busy-time series all zero on a worked tile")
	}
}
