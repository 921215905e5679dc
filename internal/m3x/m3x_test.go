package m3x_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/rpcpair"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// runColocated runs the co-located pair (the Figure 9 situation at unit
// level) on sys's second processing tile, with the root on the first, and
// fails the test unless every activity finished.
func runColocated(t *testing.T, sys *core.System, pair *rpcpair.Colocated) {
	t.Helper()
	procs := sys.Cfg.ProcessingTiles()
	pair.Tile = procs[1]
	root := sys.SpawnRoot(procs[0], "root", nil, func(a *activity.Activity) {
		pair.Root(a, core.TileSels(a))
	})
	sys.Run(120 * sim.Second)
	if !root.Done() {
		t.Fatal("did not finish")
	}
}

// TestM3xSameTileSlowPathRPC reproduces the Figure 9 situation at unit
// level: a client and a server share one tile on the M³x baseline. Every
// RPC needs the slow path (the recipient's endpoints are saved in the
// controller) and remote context switches through the controller.
func TestM3xSameTileSlowPathRPC(t *testing.T) {
	sys := core.New(core.Gem5Config(2).WithM3x())
	defer sys.Shutdown()
	const rounds = 4
	pair := &rpcpair.Colocated{Calls: rounds}
	runColocated(t, sys, pair)
	if pair.Replies != rounds {
		t.Errorf("replies = %d, want %d", pair.Replies, rounds)
	}
	if sys.Driver.Forwards < int64(rounds) {
		t.Errorf("forwards = %d, want >= %d (slow path per RPC leg)", sys.Driver.Forwards, rounds)
	}
	if sys.Driver.Switches < int64(rounds) {
		t.Errorf("remote switches = %d, want >= %d", sys.Driver.Switches, rounds)
	}
}

// TestM3xSlowPathSpans runs the same co-located workload with tracing on and
// checks the flow model's slow side: streams stay well-formed, forwarded
// messages resolve slow (the kernel.forward span wins over the final fast
// store at the receiving DTU), and the controller's forwarding and remote
// switching show up as kernel spans on the critical path.
func TestM3xSlowPathSpans(t *testing.T) {
	sys := core.New(core.Gem5Config(2).WithM3x())
	defer sys.Shutdown()
	sys.Eng.Tracer().Enable()
	const rounds = 4
	runColocated(t, sys, &rpcpair.Colocated{Calls: rounds})

	rec := sys.Eng.Tracer()
	recs := []*trace.Recorder{rec}
	if probs := trace.CheckFlows(recs); len(probs) != 0 {
		t.Fatalf("span streams not well-formed: %v", probs)
	}
	rep := trace.AnalyzeFlows(recs)
	if rep.SlowFlows < rounds {
		t.Errorf("slow flows = %d, want >= %d (every co-located RPC leg forwards)",
			rep.SlowFlows, rounds)
	}
	if rep.NoVerdict != 0 {
		t.Errorf("%d flows without verdict", rep.NoVerdict)
	}
	if n := rec.CountSpans(trace.SpanKernForward); n < rounds {
		t.Errorf("kernel.forward spans = %d, want >= %d", n, rounds)
	}
	if n := rec.CountSpans(trace.SpanKernSwitch); n < rounds {
		t.Errorf("kernel.remote_switch spans = %d, want >= %d", n, rounds)
	}
	// The controller-forwarding segment must appear in the latency
	// attribution of slow flows.
	found := false
	for _, s := range rep.Segments {
		if s.Name == "kernel.forward" && s.Count >= rounds {
			found = true
		}
	}
	if !found {
		t.Errorf("kernel.forward missing from the segment breakdown: %+v", rep.Segments)
	}
}

// TestM3xSavedStateReuse cycles one tile through remote switches between
// the co-located server and client, where every request and reply reaches
// its recipient through the slow path: the controller injects it into the
// stopped recipient's saved receive endpoint. Whenever an activity runs,
// its saved set must be empty, so savedEp can never hand out a stale copy
// whose receive slots belong to the live tile, while the set keeps its
// backing array for the next save. Each message must reach its owner alone
// (every reply echoes its request), and the slow-path work is pinned: 12
// forwards and 13 remote switches for 6 RPCs, as when restores deleted
// the sets.
func TestM3xSavedStateReuse(t *testing.T) {
	sys := core.New(core.Gem5Config(2).WithM3x())
	defer sys.Shutdown()
	drv := sys.Driver
	reused := 0 // checks that found the set's backing array kept
	const rounds = 6
	pair := &rpcpair.Colocated{Calls: rounds, Running: func(a *activity.Activity, eps ...dtu.EpID) {
		n, c := drv.SavedSet(a.ID)
		if n != 0 {
			t.Errorf("%s runs with %d saved endpoints", a.Name, n)
		}
		if c > 0 {
			reused++
		}
		for _, ep := range eps {
			if drv.SavedEp(a.ID, ep) != nil {
				t.Errorf("%s runs, but savedEp(%d, %d) returns a saved copy", a.Name, a.ID, ep)
			}
		}
	}}
	runColocated(t, sys, pair)
	if pair.Replies != rounds {
		t.Errorf("replies = %d, want %d", pair.Replies, rounds)
	}
	if reused == 0 {
		t.Error("no restore kept the saved set's backing array")
	}
	if drv.Forwards != 12 || drv.Switches != 13 {
		t.Errorf("forwards %d, switches %d; want 12 and 13", drv.Forwards, drv.Switches)
	}
}

// TestM3xRevokeReachesSavedState revokes a send gate while its owner is
// switched out. The revocation must reach the owner's saved DTU state, so
// the restore at its next switch-in cannot bring the gate back: the
// victim's second send on it fails with ErrUnknownEp.
func TestM3xRevokeReachesSavedState(t *testing.T) { runRevoke(t, true) }

// TestM3xRecvWaitsOnItsGate runs the same revocation with the victim's first
// message left unread on the root's receive gate. The root's syscalls then
// wait for their replies while another gate holds a message: each reply
// wait must wait for its own gate. RCTMux once returned from WaitForMsg at
// once whenever any gate held a message, so the wait spun without
// advancing sim time.
func TestM3xRecvWaitsOnItsGate(t *testing.T) { runRevoke(t, false) }

// runRevoke runs the revocation scenario on a helper goroutine under a
// wall-clock deadline, which turns a spin that never advances sim time into
// a failure instead of a hung package. fetchFirst makes the root fetch the
// victim's first message before its next syscall.
func runRevoke(t *testing.T, fetchFirst bool) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		revokeScenario(t, fetchFirst)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the run spun in place without advancing sim time")
	}
}

// revokeScenario is runRevoke's run. It reports with Errorf only: it runs
// on the helper goroutine.
func revokeScenario(t *testing.T, fetchFirst bool) {
	sys := core.New(core.Gem5Config(2).WithM3x())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	workTile := procs[1]
	var (
		sgSel              cap.Sel  // the victim's copy of the root's send gate
		sgEp               dtu.EpID // where the victim activated it
		delegated, revoked bool
		done               bool // the victim tried its second send
		firstErr, lastErr  error
	)
	victim := func(a *activity.Activity) {
		for !delegated {
			a.Compute(1000)
		}
		ep, err := a.SysActivate(sgSel)
		must(t, err)
		sgEp = ep
		firstErr = a.Send(ep, []byte("first"), 0, -1, 0)
		for !revoked {
			a.Compute(1000)
		}
		lastErr = a.Send(ep, []byte("second"), 0, -1, 0)
		done = true
	}
	spinner := func(a *activity.Activity) {
		for !done {
			a.Compute(1000)
		}
	}
	root := sys.SpawnRoot(procs[0], "root", nil, func(a *activity.Activity) {
		rgSel, err := a.SysCreateRGate(2, 64)
		must(t, err)
		rgEp, err := a.SysActivate(rgSel)
		must(t, err)
		sel, err := a.SysCreateSGate(rgSel, 0x5A, 2)
		must(t, err)
		tiles := core.TileSels(a)
		vic, err := a.Spawn(tiles[workTile], workTile, "victim", nil, victim)
		must(t, err)
		_, err = a.Spawn(tiles[workTile], workTile, "spinner", nil, spinner)
		must(t, err)
		sgSel, err = a.SysDelegate(vic.ID, sel)
		must(t, err)
		delegated = true
		if fetchFirst {
			slot, _ := a.Recv(rgEp)
			a.AckMsg(rgEp, slot)
		}
		for sys.Driver.SavedEp(vic.ID, sgEp) == nil {
			a.Compute(1000) // until a rotation switched the victim out
		}
		must(t, a.SysRevoke(sel))
		revoked = true
		for !done {
			a.Compute(1000)
		}
		// Drain the gate: the first message, unless fetched already, and
		// the second, if the gate came back.
		for {
			slot, _, ok := a.TryRecv(rgEp)
			if !ok {
				break
			}
			a.AckMsg(rgEp, slot)
		}
		// The root exits without waiting for the children: once the
		// victim exits, no rotation switches the saved spinner back in.
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Error("did not finish")
		return
	}
	if firstErr != nil {
		t.Errorf("first send: %v", firstErr)
	}
	if !errors.Is(lastErr, dtu.ErrUnknownEp) {
		t.Errorf("send after revocation: err = %v, want %v (the restore brought the revoked gate back)",
			lastErr, dtu.ErrUnknownEp)
	}
}

// must ends the run on err: it reports with Errorf, and runtime.Goexit
// inside a simulated process ends the goroutine that runs the engine,
// revokeScenario's helper goroutine.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("unexpected error: %v", err)
		runtime.Goexit()
	}
}
