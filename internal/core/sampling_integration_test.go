package core

import (
	"strings"
	"testing"

	"m3v/internal/activity"
	"m3v/internal/sim"
)

// runSampledRPC is runTracedRPC with a sampling interval (0 for off): it
// boots a system, runs n tile-local no-op RPCs, and returns the system for
// inspection.
func runSampledRPC(t *testing.T, every sim.Time, n int) *System {
	t.Helper()
	cfg := FPGAConfig()
	cfg.SampleInterval = every
	sys := New(cfg)
	sys.Eng.Tracer().Enable()
	procs := sys.Cfg.ProcessingTiles()
	tile := procs[1]
	share := &chanInfo{}
	root := sys.SpawnRoot(tile, "client", nil, func(a *activity.Activity) {
		tiles := TileSels(a)
		_, err := a.Spawn(tiles[tile], tile, "server",
			map[string]interface{}{"share": share, "rounds": n}, rpcServer)
		if err != nil {
			t.Errorf("spawn: %v", err)
			return
		}
		for !share.ready {
			a.Compute(1000)
			a.Yield()
		}
		sgEp, err := a.SysActivate(share.sgateSel)
		if err != nil {
			t.Errorf("activate: %v", err)
			return
		}
		rgSel, _ := a.SysCreateRGate(1, 64)
		rgEp, _ := a.SysActivate(rgSel)
		for i := 0; i < n+1; i++ {
			if _, err := a.Call(sgEp, rgEp, []byte{byte(i)}); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	sys.Run(30 * sim.Second)
	if !root.Done() {
		t.Fatal("workload did not finish")
	}
	return sys
}

// TestSamplingDisabledBitIdentical pins the zero-cost-when-disabled
// contract: a system built with a zero SampleInterval arms no sampler and
// produces exactly the event and span streams of the pre-telemetry code
// path — run twice, the hashes must match, and they must match a run that
// never mentions sampling at all (runTracedRPC).
func TestSamplingDisabledBitIdentical(t *testing.T) {
	plain := runTracedRPC(t, true, 10)
	defer plain.Shutdown()
	off := runSampledRPC(t, 0, 10)
	defer off.Shutdown()
	if off.Eng.Tracer().Sampler() != nil {
		t.Fatal("zero SampleInterval armed a sampler")
	}
	pr, or := plain.Eng.Tracer(), off.Eng.Tracer()
	if pr.Hash() != or.Hash() || len(pr.Events()) != len(or.Events()) {
		t.Errorf("disabled-sampling trace diverges from plain: %d events/%#x vs %d events/%#x",
			len(pr.Events()), pr.Hash(), len(or.Events()), or.Hash())
	}
	if pr.SpanHash() != or.SpanHash() {
		t.Errorf("disabled-sampling span stream diverges: %#x vs %#x", pr.SpanHash(), or.SpanHash())
	}
}

// TestSamplingDoesNotPerturbTrace: sampler ticks emit no trace events and
// no spans, so a fault-free run with sampling ON must produce the same
// event and span hashes as one with sampling OFF — telemetry observes the
// simulation without changing it.
func TestSamplingDoesNotPerturbTrace(t *testing.T) {
	off := runSampledRPC(t, 0, 10)
	defer off.Shutdown()
	on := runSampledRPC(t, 100*sim.Nanosecond, 10)
	defer on.Shutdown()
	offR, onR := off.Eng.Tracer(), on.Eng.Tracer()
	if offR.Hash() != onR.Hash() || len(offR.Events()) != len(onR.Events()) {
		t.Errorf("sampling perturbed the event stream: %d events/%#x vs %d events/%#x",
			len(offR.Events()), offR.Hash(), len(onR.Events()), onR.Hash())
	}
	if offR.SpanHash() != onR.SpanHash() {
		t.Errorf("sampling perturbed the span stream: %#x vs %#x", offR.SpanHash(), onR.SpanHash())
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
