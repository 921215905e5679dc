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
// requires the span streams to hash identically: the trace layer must not
// perturb the simulation, and the simulation must stay deterministic down
// to every recorded span — same spans, same flow IDs (minted from the
// engine-sequenced recorder), same begin/end stamps.
func TestTraceHashDeterminism(t *testing.T) {
	hash := func(sameTile bool) (uint64, int) {
		sys := runTracedRPC(t, FPGAConfig(), sameTile, 10)
		defer sys.Shutdown()
		rec := sys.Eng.Tracer()
		return rec.Hash(), len(rec.Spans())
	}
	for _, sameTile := range []bool{false, true} {
		h1, n1 := hash(sameTile)
		h2, n2 := hash(sameTile)
		if n1 == 0 {
			t.Fatalf("sameTile=%v: trace is empty", sameTile)
		}
		if n1 != n2 || h1 != h2 {
			t.Errorf("sameTile=%v: traces diverge: %d spans/%#x vs %d spans/%#x",
				sameTile, n1, h1, n2, h2)
		}
	}
}

// TestSpanHashDeterminism is the span-by-span twin of
// TestTraceHashDeterminism: running the same workload twice must produce
// identical span streams — compared field by field, not only through the
// hash — and equal streams must hash equally.
func TestSpanHashDeterminism(t *testing.T) {
	spans := func(sameTile bool) ([]trace.Span, uint64) {
		sys := runTracedRPC(t, FPGAConfig(), sameTile, 10)
		defer sys.Shutdown()
		rec := sys.Eng.Tracer()
		return append([]trace.Span(nil), rec.Spans()...), rec.Hash()
	}
	for _, sameTile := range []bool{false, true} {
		s1, h1 := spans(sameTile)
		s2, h2 := spans(sameTile)
		if len(s1) == 0 {
			t.Fatalf("sameTile=%v: span stream is empty", sameTile)
		}
		if len(s1) != len(s2) {
			t.Fatalf("sameTile=%v: span streams diverge: %d vs %d spans",
				sameTile, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("sameTile=%v: span %d diverges: %+v vs %+v",
					sameTile, i, s1[i], s2[i])
			}
		}
		if h1 != h2 {
			t.Errorf("sameTile=%v: equal span streams hash differently: %#x vs %#x",
				sameTile, h1, h2)
		}
	}
}

// TestCountersReconcileWithTrace checks that the registry counters and the
// span stream agree: every DTU send/reply counted must appear as a
// dtu.send/dtu.reply span, every context switch counted per target as a
// tilemux.switch span with that destination, every delivered packet as a
// delivered noc.xfer span, and every syscall as a kernel.syscall span. The
// workload is tile-local so that core requests and TileMux switches are
// exercised.
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

	// Span totals: only commands that completed without error increment the
	// per-command counters, and sends that fail in flight keep their count,
	// so in this failure-free workload the two views must match exactly.
	var sSends, sReplies, sDelivered int64
	for _, s := range rec.Spans() {
		switch {
		case s.Name == trace.SpanDTUSend && s.Arg1 == 0:
			sSends++
		case s.Name == trace.SpanDTUReply && s.Arg1 == 0:
			sReplies++
		case s.Name == trace.SpanNoCXfer && s.Arg1 == 1:
			sDelivered++
		}
	}
	if cSends == 0 || cReplies == 0 {
		t.Fatal("workload produced no sends/replies")
	}
	if cSends != sSends {
		t.Errorf("send counters = %d, trace spans = %d", cSends, sSends)
	}
	if cReplies != sReplies {
		t.Errorf("reply counters = %d, trace spans = %d", cReplies, sReplies)
	}
	if n := sys.Net.Delivered(); n == 0 || n != sDelivered {
		t.Errorf("noc.delivered = %d, delivered noc.xfer spans = %d", n, sDelivered)
	}
	if n, s := sys.Kern.Syscalls(), rec.CountSpans(trace.SpanKernSyscall); n == 0 || n != s {
		t.Errorf("kernel.syscalls = %d, kernel.syscall spans = %d", n, s)
	}

	// Per-destination context switches: registry snapshot vs span stream.
	for tile, mux := range sys.Muxes {
		targets := mux.SwitchTargets()
		var total int64
		fromSpans := make(map[int64]int64)
		for _, s := range rec.Spans() {
			if s.Name == trace.SpanMuxSwitch && int(s.Tile) == int(tile) {
				fromSpans[s.Arg1]++
			}
		}
		for id, n := range targets {
			total += n
			if fromSpans[int64(id)] != n {
				t.Errorf("tile %d: switches to act %d: counter=%d spans=%d",
					tile, id, n, fromSpans[int64(id)])
			}
		}
		if total != mux.CtxSwitches() {
			t.Errorf("tile %d: switch targets sum to %d, CtxSwitches = %d",
				tile, total, mux.CtxSwitches())
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
	recs := []*trace.Recorder{rec}
	if probs := trace.CheckFlows(recs); len(probs) != 0 {
		t.Fatalf("span streams not well-formed: %v", probs)
	}
	rep := trace.AnalyzeFlows(recs)
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

// TestFlowsFileMatchesRecorder pins that the flows file carries everything
// the flow analysis reads: on Figure 6's tile-local pair (M3v) and on the
// co-located pair (M3x, every message forwarded), the check and the report
// of the written-then-read file equal those of the live recorder.
func TestFlowsFileMatchesRecorder(t *testing.T) {
	fig6 := runTracedRPC(t, FPGAConfig(), true, 10)
	defer fig6.Shutdown()
	m3x := New(Gem5Config(2).WithM3x())
	defer m3x.Shutdown()
	m3x.Eng.Tracer().Enable()
	procs := m3x.Cfg.ProcessingTiles()
	pair := &rpcpair.Colocated{Calls: 4, Tile: procs[1]}
	root := m3x.SpawnRoot(procs[0], "root", nil, func(a *activity.Activity) {
		pair.Root(a, TileSels(a))
	})
	m3x.Run(120 * sim.Second)
	if !root.Done() {
		t.Fatal("co-located pair did not finish")
	}

	for _, tc := range []struct {
		name string
		sys  *System
	}{{"fig6 M3v", fig6}, {"co-located M3x", m3x}} {
		live := []*trace.Recorder{tc.sys.Eng.Tracer()}
		var buf bytes.Buffer
		if err := trace.WriteFlows(&buf, live); err != nil {
			t.Fatalf("%s: WriteFlows: %v", tc.name, err)
		}
		read, err := trace.ReadFlows(&buf)
		if err != nil {
			t.Fatalf("%s: ReadFlows: %v", tc.name, err)
		}
		for _, recs := range [][]*trace.Recorder{live, read} {
			if probs := trace.CheckFlows(recs); len(probs) != 0 {
				t.Errorf("%s: span streams not well-formed: %v", tc.name, probs)
			}
		}
		rep := trace.AnalyzeFlows(live)
		if rep.Flows == 0 {
			t.Errorf("%s: no flows", tc.name)
		}
		if got, want := trace.AnalyzeFlows(read).Format(), rep.Format(); got != want {
			t.Errorf("%s: report from the flows file:\n%s\nfrom the recorder:\n%s", tc.name, got, want)
		}
	}
}
