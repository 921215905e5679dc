package core

import (
	"bytes"
	"testing"

	"m3v/internal/activity"
	"m3v/internal/rpcpair"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// runTracedRPC boots cfg with event tracing enabled, runs Figure 6's pair
// for n calls after a warmup call (tile-local when sameTile is set), and
// returns the system for inspection. The caller owns the shutdown.
func runTracedRPC(t *testing.T, cfg Config, sameTile bool, n int) *System {
	t.Helper()
	sys := New(cfg)
	sys.Eng.Tracer().Enable()
	procs := sys.Cfg.ProcessingTiles()
	clientTile := procs[1]
	pair := &rpcpair.Pair{Server: procs[2], Calls: n + 1}
	if sameTile {
		pair.Server = clientTile
	}
	root := sys.SpawnRoot(clientTile, "client", nil, func(a *activity.Activity) {
		pair.Client(a, TileSels(a))
	})
	sys.Run(30 * sim.Second)
	if !root.Done() {
		t.Fatal("workload did not finish")
	}
	return sys
}

// TestTraceHashDeterminism runs the Figure-6 microbench workload twice and
// requires the full event streams to hash identically: the trace layer must
// not perturb the simulation, and the simulation must stay deterministic
// down to every recorded event.
func TestTraceHashDeterminism(t *testing.T) {
	hash := func(sameTile bool) (uint64, int) {
		sys := runTracedRPC(t, FPGAConfig(), sameTile, 10)
		defer sys.Shutdown()
		rec := sys.Eng.Tracer()
		return rec.Hash(), len(rec.Events())
	}
	for _, sameTile := range []bool{false, true} {
		h1, n1 := hash(sameTile)
		h2, n2 := hash(sameTile)
		if n1 == 0 {
			t.Fatalf("sameTile=%v: trace is empty", sameTile)
		}
		if n1 != n2 || h1 != h2 {
			t.Errorf("sameTile=%v: traces diverge: %d events/%#x vs %d events/%#x",
				sameTile, n1, h1, n2, h2)
		}
	}
}

// TestCountersReconcileWithTrace checks that the migrated registry counters
// and the structured event stream agree: every DTU send/reply counted must
// appear as a dtu_cmd event, and every context switch counted per target
// must appear as a ctx_switch event with that destination. The workload is
// tile-local so that core requests and TileMux switches are exercised.
func TestCountersReconcileWithTrace(t *testing.T) {
	sys := runTracedRPC(t, FPGAConfig(), true, 20)
	defer sys.Shutdown()
	rec := sys.Eng.Tracer()

	// Counter totals across every DTU in the system (controller + tiles).
	var cSends, cReplies int64
	cSends += sys.Kern.DTU().Sends()
	cReplies += sys.Kern.DTU().Replies()
	for _, mux := range sys.Muxes {
		cSends += mux.DTU().Sends()
		cReplies += mux.DTU().Replies()
	}

	// Event totals: only commands that completed without error increment the
	// per-command counters, and sends that fail in flight keep their count,
	// so in this failure-free workload the two views must match exactly.
	var eSends, eReplies int64
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindDTUCmd || ev.Arg3 != 0 {
			continue
		}
		switch trace.DTUCmd(ev.Arg0) {
		case trace.CmdSend:
			eSends++
		case trace.CmdReply:
			eReplies++
		}
	}
	if cSends == 0 || cReplies == 0 {
		t.Fatal("workload produced no sends/replies")
	}
	if cSends != eSends {
		t.Errorf("send counters = %d, trace events = %d", cSends, eSends)
	}
	if cReplies != eReplies {
		t.Errorf("reply counters = %d, trace events = %d", cReplies, eReplies)
	}

	// Per-destination context switches: registry snapshot vs event stream.
	for tile, mux := range sys.Muxes {
		targets := mux.SwitchTargets()
		var total int64
		fromEvents := make(map[int64]int64)
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindCtxSwitch && int(ev.Tile) == int(tile) {
				fromEvents[ev.Arg1]++
			}
		}
		for id, n := range targets {
			total += n
			if fromEvents[int64(id)] != n {
				t.Errorf("tile %d: switches to act %d: counter=%d events=%d",
					tile, id, n, fromEvents[int64(id)])
			}
		}
		if total != mux.CtxSwitches() {
			t.Errorf("tile %d: switch targets sum to %d, CtxSwitches = %d",
				tile, total, mux.CtxSwitches())
		}
	}
}

// TestSpanHashDeterminism is the span-stream twin of TestTraceHashDeterminism:
// flow IDs are minted from the engine-sequenced recorder, so running the same
// workload twice must produce byte-identical span streams — same spans, same
// flow IDs, same begin/end stamps — and therefore identical hashes.
func TestSpanHashDeterminism(t *testing.T) {
	hash := func(sameTile bool) (uint64, int) {
		sys := runTracedRPC(t, FPGAConfig(), sameTile, 10)
		defer sys.Shutdown()
		rec := sys.Eng.Tracer()
		return rec.SpanHash(), len(rec.Spans())
	}
	for _, sameTile := range []bool{false, true} {
		h1, n1 := hash(sameTile)
		h2, n2 := hash(sameTile)
		if n1 == 0 {
			t.Fatalf("sameTile=%v: span stream is empty", sameTile)
		}
		if n1 != n2 || h1 != h2 {
			t.Errorf("sameTile=%v: span streams diverge: %d spans/%#x vs %d spans/%#x",
				sameTile, n1, h1, n2, h2)
		}
	}
}

// TestSpanFastPathVerdicts runs the tile-local Figure-6 workload on M3v and
// checks the flow model end to end: streams are well-formed, messages to
// descheduled activities resolve fast (vDTU store + core request, no kernel
// involvement), and the switch-triggering spans appear.
func TestSpanFastPathVerdicts(t *testing.T) {
	sys := runTracedRPC(t, FPGAConfig(), true, 10)
	defer sys.Shutdown()
	rec := sys.Eng.Tracer()

	var buf bytes.Buffer
	if err := trace.WriteFlows(&buf, []*trace.Recorder{rec}); err != nil {
		t.Fatalf("WriteFlows: %v", err)
	}
	flows, err := trace.ReadFlows(&buf)
	if err != nil {
		t.Fatalf("ReadFlows: %v", err)
	}
	if probs := trace.CheckFlows(flows); len(probs) != 0 {
		t.Fatalf("span streams not well-formed: %v", probs)
	}
	rep := trace.AnalyzeFlows(flows)
	if rep.FastFlows == 0 || rep.NoVerdict != 0 {
		t.Errorf("verdicts: %d fast, %d slow, %d unresolved — tile-local M3v RPC must resolve fast",
			rep.FastFlows, rep.SlowFlows, rep.NoVerdict)
	}
	if rep.SlowFlows != 0 {
		t.Errorf("%d slow flows on M3v: nothing here goes through the kernel", rep.SlowFlows)
	}
	// The tile-local path exercises the vDTU machinery: core requests for
	// messages to descheduled activities and the TileMux switches they cause.
	if n := rec.CountSpans(trace.SpanDTUCoreReq); n == 0 {
		t.Error("no dtu.core_req spans in a tile-local run")
	}
	if n := rec.CountSpans(trace.SpanMuxWakeup); n == 0 {
		t.Error("no tilemux.wakeup spans in a tile-local run")
	}
	// No dtu.tlb assertion: the no-op RPC keeps its buffers in the pinned
	// vaddr-0 message area, which skips translation by design.
}
