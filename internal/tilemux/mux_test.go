package tilemux

import (
	"errors"
	"testing"

	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
)

// muxRig wires one processing tile (vDTU + TileMux) and one plain "kernel"
// tile by hand, without the real controller.
type muxRig struct {
	eng  *sim.Engine
	net  *noc.Network
	d    *dtu.DTU // tile 0: processing
	kd   *dtu.DTU // tile 1: kernel
	mux  *Mux
	kact dtu.ActID
}

const (
	epKernRgate dtu.EpID = 4
	epKernSgate dtu.EpID = 5
	epPfRgate   dtu.EpID = 6

	kEpNotifyRgate dtu.EpID = 2
	kEpMuxSgate    dtu.EpID = 8
	kEpMuxReply    dtu.EpID = 9
)

func newMuxRig(t *testing.T) *muxRig {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.New(eng, noc.StarMesh{NumTiles: 4}, noc.DefaultConfig())
	r := &muxRig{
		eng: eng,
		net: net,
		d:   dtu.New(eng, net, 0, sim.MHz(80), true),
		kd:  dtu.New(eng, net, 1, sim.MHz(100), false),
	}
	// TileMux endpoints on tile 0.
	must(r.d.ConfigureLocal(epKernRgate, dtu.RecvEP(dtu.ActTileMux, 4, 128)))
	must(r.d.ConfigureLocal(epKernSgate, dtu.SendEP(dtu.ActTileMux, 1, kEpNotifyRgate, 0, 2, 64)))
	must(r.d.ConfigureLocal(epPfRgate, dtu.RecvEP(dtu.ActTileMux, 4, 64)))
	// Kernel endpoints on tile 1.
	must(r.kd.ConfigureLocal(kEpNotifyRgate, dtu.RecvEP(dtu.ActInvalid, 8, 64)))
	must(r.kd.ConfigureLocal(kEpMuxSgate, dtu.SendEP(dtu.ActInvalid, 0, epKernRgate, 0, 2, 128)))
	must(r.kd.ConfigureLocal(kEpMuxReply, dtu.RecvEP(dtu.ActInvalid, 2, 64)))
	r.mux = New(eng, sim.MHz(80), r.d, EPConfig{
		KernRgate: epKernRgate, KernSgate: epKernSgate, PfRgate: epPfRgate,
	})
	t.Cleanup(func() { eng.Shutdown() })
	return r
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// spawnAct creates, attaches, and starts an activity running fn.
func (r *muxRig) spawnAct(id dtu.ActID, name string, fn func(a *Act)) *Act {
	r.mux.CreateAct(id, name)
	r.mux.StartAct(id)
	var act *Act
	r.eng.Spawn(name, func(p *sim.Proc) {
		act = r.mux.Attach(id, p)
		fn(act)
	})
	return r.mux.Act(id)
}

func (r *muxRig) run(limit sim.Time) { r.eng.RunUntil(limit) }

// kernelCall sends a request to TileMux from the kernel tile and returns the
// decoded response code.
func kernelCall(t *testing.T, r *muxRig, p *sim.Proc, req []byte) proto.ErrCode {
	t.Helper()
	err := r.kd.Send(p, dtu.SendArgs{Ep: kEpMuxSgate, Data: req, ReplyEp: kEpMuxReply})
	if err != nil {
		t.Fatalf("send to mux: %v", err)
	}
	for !r.kd.HasUnread(kEpMuxReply) {
		p.Sleep(sim.Microsecond)
	}
	slot, msg, err := r.kd.Fetch(p, kEpMuxReply)
	if err != nil {
		t.Fatalf("fetch mux reply: %v", err)
	}
	defer r.kd.Ack(p, kEpMuxReply, slot)
	code, _, err := proto.ParseResp(msg.Data)
	if err != nil {
		t.Fatalf("parse mux reply: %v", err)
	}
	return code
}

func TestComputeAccountsTime(t *testing.T) {
	r := newMuxRig(t)
	done := false
	r.spawnAct(1, "worker", func(a *Act) {
		a.Compute(8000) // 8000 cycles at 80 MHz = 100us
		done = true
	})
	r.run(10 * sim.Millisecond)
	if !done {
		t.Fatal("worker did not finish")
	}
	a := r.mux.Act(1)
	if a.Busy() < 100*sim.Microsecond {
		t.Errorf("busy = %v, want >= 100us", a.Busy())
	}
}

func TestRoundRobinPreemption(t *testing.T) {
	r := newMuxRig(t)
	var finished []string
	mk := func(id dtu.ActID, name string) {
		r.spawnAct(id, name, func(a *Act) {
			a.Compute(400_000) // 5ms at 80MHz: several timeslices
			finished = append(finished, name)
		})
	}
	mk(1, "a")
	mk(2, "b")
	r.run(sim.Second)
	if len(finished) != 2 {
		t.Fatalf("finished = %v, want both", finished)
	}
	if r.mux.CtxSwitches() < 4 {
		t.Errorf("ctx switches = %d, want >= 4 (preemptive sharing)", r.mux.CtxSwitches())
	}
	// With equal demand and round robin, both finish within ~1 timeslice of
	// each other near 2x the single-activity runtime (~10ms).
	if now := r.eng.Now(); now > 20*sim.Millisecond {
		t.Errorf("completion at %v, want ~10ms", now)
	}
}

func TestLocalPingPongThroughVDTU(t *testing.T) {
	// The Figure 6 "M3v local" scenario at unit level: two activities on one
	// tile communicate through the vDTU; core requests and context switches
	// drive the hand-off.
	r := newMuxRig(t)
	// Channel act1 -> act2 and reply gate.
	must(r.d.ConfigureLocal(16, dtu.SendEP(1, 0, 17, 0xC1, 1, 64))) // act1's sgate (loopback)
	must(r.d.ConfigureLocal(17, dtu.RecvEP(2, 2, 64)))              // act2's rgate
	must(r.d.ConfigureLocal(18, dtu.RecvEP(1, 2, 64)))              // act1's reply rgate

	const rounds = 3
	got := 0
	r.spawnAct(1, "client", func(a *Act) {
		for i := 0; i < rounds; i++ {
			a.BeginOp()
			err := r.d.Send(a.Proc(), dtu.SendArgs{Ep: 16, Data: []byte{byte(i)}, ReplyEp: 18})
			a.EndOp()
			if err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			for {
				if r.d.HasUnread(18) {
					a.BeginOp()
					slot, m, err := r.d.Fetch(a.Proc(), 18)
					if err == nil {
						got += int(m.Data[0])
						_ = r.d.Ack(a.Proc(), 18, slot)
					}
					a.EndOp()
					break
				}
				a.WaitForMsg()
			}
		}
		a.Exit(0)
	})
	r.spawnAct(2, "server", func(a *Act) {
		for i := 0; i < rounds; i++ {
			for !r.d.HasUnread(17) {
				a.WaitForMsg()
			}
			a.BeginOp()
			slot, m, err := r.d.Fetch(a.Proc(), 17)
			if err != nil {
				a.EndOp()
				t.Errorf("server fetch: %v", err)
				return
			}
			err = r.d.Reply(a.Proc(), 17, slot, []byte{m.Data[0] + 10}, 0)
			a.EndOp()
			if err != nil {
				t.Errorf("server reply: %v", err)
				return
			}
		}
		a.Exit(0)
	})
	r.run(sim.Second)
	want := 10 + 11 + 12
	if got != want {
		t.Errorf("sum of replies = %d, want %d", got, want)
	}
	if r.mux.Irqs() == 0 {
		t.Error("expected core-request interrupts for the blocked recipient")
	}
	if r.mux.CtxSwitches() < 2*rounds {
		t.Errorf("ctx switches = %d, want >= %d", r.mux.CtxSwitches(), 2*rounds)
	}
}

func TestWaitPollsWhenAlone(t *testing.T) {
	// A single activity waiting for a remote message polls the vDTU instead
	// of blocking (paper §3.7).
	r := newMuxRig(t)
	must(r.d.ConfigureLocal(16, dtu.RecvEP(1, 2, 64)))
	must(r.kd.ConfigureLocal(10, dtu.SendEP(dtu.ActInvalid, 0, 16, 0xAB, 1, 64)))
	var recvAt sim.Time
	r.spawnAct(1, "waiter", func(a *Act) {
		for !r.d.HasUnread(16) {
			a.WaitForMsg()
		}
		a.BeginOp()
		slot, _, err := r.d.Fetch(a.Proc(), 16)
		if err == nil {
			_ = r.d.Ack(a.Proc(), 16, slot)
		}
		a.EndOp()
		recvAt = a.Proc().Now()
	})
	r.eng.Spawn("kernel", func(p *sim.Proc) {
		p.Sleep(500 * sim.Microsecond)
		if err := r.kd.Send(p, dtu.SendArgs{Ep: 10, Data: []byte("hi"), ReplyEp: -1}); err != nil {
			t.Errorf("kernel send: %v", err)
		}
	})
	r.run(sim.Second)
	if recvAt == 0 {
		t.Fatal("message never received")
	}
	// Poll mode: latency after arrival is bounded by the poll interval plus
	// command costs, far below a timeslice.
	if recvAt > 600*sim.Microsecond {
		t.Errorf("received at %v, want < 600us (poll latency)", recvAt)
	}
	if r.mux.CtxSwitches() != 1 {
		// Exactly the initial dispatch from idle; none during the wait.
		t.Errorf("ctx switches = %d, want 1 (polling, not blocking)", r.mux.CtxSwitches())
	}
}

func TestKernelRequestsCreateStartMapKill(t *testing.T) {
	r := newMuxRig(t)
	started := false
	r.eng.Spawn("kernel", func(p *sim.Proc) {
		if code := kernelCall(t, r, p, proto.NewWriter(proto.OpMuxCreateAct).U16(7).Str("newact").Done()); code != proto.EOK {
			t.Errorf("create: code %d", code)
		}
		if r.mux.Act(7) == nil {
			t.Error("activity 7 not created")
		}
		// Map 4 pages at 0x10000 -> 0x80000.
		req := proto.NewWriter(proto.OpMuxMapPages).
			U16(7).U64(0x10000).U64(0x80000).U32(4).U8(uint8(dtu.PermRW)).Done()
		if code := kernelCall(t, r, p, req); code != proto.EOK {
			t.Errorf("map: code %d", code)
		}
		a := r.mux.Act(7)
		if e, ok := a.pages[0x10]; !ok || e.ppage != 0x80 {
			t.Errorf("pte[0x10] = %+v, ok=%v", e, ok)
		}
		if code := kernelCall(t, r, p, proto.NewWriter(proto.OpMuxStartAct).U16(7).Done()); code != proto.EOK {
			t.Errorf("start: code %d", code)
		}
		started = true
		if code := kernelCall(t, r, p, proto.NewWriter(proto.OpMuxKillAct).U16(7).Done()); code != proto.EOK {
			t.Errorf("kill: code %d", code)
		}
		if r.mux.Act(7).State() != "exited" {
			t.Errorf("state after kill = %s", r.mux.Act(7).State())
		}
	})
	r.run(sim.Second)
	if !started {
		t.Fatal("kernel interaction did not complete")
	}
}

func TestExitNotifiesKernel(t *testing.T) {
	r := newMuxRig(t)
	r.spawnAct(3, "short", func(a *Act) {
		a.Compute(100)
		a.Exit(42)
	})
	var gotAct uint16
	var gotCode uint32
	r.eng.Spawn("kernel", func(p *sim.Proc) {
		for !r.kd.HasUnread(kEpNotifyRgate) {
			p.Sleep(10 * sim.Microsecond)
		}
		slot, msg, err := r.kd.Fetch(p, kEpNotifyRgate)
		if err != nil {
			t.Errorf("fetch notify: %v", err)
			return
		}
		op, rd, _ := proto.ParseOp(msg.Data)
		if op != proto.OpNotifyExit {
			t.Errorf("notify op = %d", op)
		}
		gotAct = rd.U16()
		gotCode = rd.U32()
		_ = r.kd.Ack(p, kEpNotifyRgate, slot)
	})
	r.run(sim.Second)
	if gotAct != 3 || gotCode != 42 {
		t.Errorf("exit notify = (act %d, code %d), want (3, 42)", gotAct, gotCode)
	}
}

func TestTranslateFixMinorFault(t *testing.T) {
	r := newMuxRig(t)
	ok := false
	r.spawnAct(1, "vmuser", func(a *Act) {
		// Kernel pre-mapped the page (direct map for the test).
		a.mapPage(0x30, 0x90, dtu.PermRW)
		if err := a.FixTranslation(0x30123, dtu.PermR); err != nil {
			t.Errorf("minor fault: %v", err)
			return
		}
		// The vDTU TLB now has the translation.
		if pa, hit := r.d.TLB().Lookup(1, 0x30456, dtu.PermR); !hit || pa != 0x90456 {
			t.Errorf("TLB after fix = (%#x,%v)", pa, hit)
		}
		ok = true
	})
	r.run(sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
}

func TestTranslateFixSegfaultWithoutPager(t *testing.T) {
	r := newMuxRig(t)
	var got error
	r.spawnAct(1, "segv", func(a *Act) {
		got = a.FixTranslation(0xDEAD000, dtu.PermR)
	})
	r.run(sim.Second)
	if !errors.Is(got, ErrSegfault) {
		t.Errorf("err = %v, want ErrSegfault", got)
	}
}

func TestPageFaultThroughPager(t *testing.T) {
	// Major fault: TileMux sends a page-fault message to the pager (on the
	// kernel tile for this test); the pager "maps" the page by issuing a
	// MapPages request back to TileMux, then replies to the fault.
	r := newMuxRig(t)
	// Pager rgate on tile 1 and TileMux's sgate to it.
	must(r.kd.ConfigureLocal(12, dtu.RecvEP(dtu.ActInvalid, 2, 64)))
	must(r.d.ConfigureLocal(20, dtu.SendEP(dtu.ActTileMux, 1, 12, 0xFA, 1, 64)))

	faultDone := false
	r.spawnAct(1, "vmuser", func(a *Act) {
		if err := a.FixTranslation(0x40000, dtu.PermW); err != nil {
			t.Errorf("major fault: %v", err)
			return
		}
		faultDone = true
	})
	r.mux.SetPagerEp(1, 20)
	r.eng.Spawn("pager", func(p *sim.Proc) {
		for !r.kd.HasUnread(12) {
			p.Sleep(10 * sim.Microsecond)
		}
		slot, msg, err := r.kd.Fetch(p, 12)
		if err != nil {
			t.Errorf("pager fetch: %v", err)
			return
		}
		op, rd, _ := proto.ParseOp(msg.Data)
		if op != proto.OpPageFault {
			t.Errorf("pager got op %d", op)
		}
		act := rd.U16()
		vaddr := rd.U64()
		if act != 1 || vaddr != 0x40000 {
			t.Errorf("PF = (act %d, %#x)", act, vaddr)
		}
		// Install the mapping via the kernel->mux channel.
		req := proto.NewWriter(proto.OpMuxMapPages).
			U16(act).U64(vaddr).U64(0xA0000).U32(1).U8(uint8(dtu.PermRW)).Done()
		if code := kernelCall(t, r, p, req); code != proto.EOK {
			t.Errorf("map: code %d", code)
		}
		// Answer the fault.
		if err := r.kd.Reply(p, 12, slot, proto.Resp(proto.EOK), 0); err != nil {
			t.Errorf("pager reply: %v", err)
		}
	})
	r.run(sim.Second)
	if !faultDone {
		t.Fatal("page fault was not resolved")
	}
	if r.mux.PageFaults() != 1 {
		t.Errorf("page faults = %d, want 1", r.mux.PageFaults())
	}
}

func TestYieldRoundRobin(t *testing.T) {
	r := newMuxRig(t)
	var order []dtu.ActID
	mk := func(id dtu.ActID) {
		r.spawnAct(id, "y", func(a *Act) {
			for i := 0; i < 3; i++ {
				a.Compute(100)
				order = append(order, id)
				a.Yield()
			}
		})
	}
	mk(1)
	mk(2)
	r.run(sim.Second)
	want := []dtu.ActID{1, 2, 1, 2, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// driveToken puts the core token into a state through real Acquire calls:
// "held" leaves it held by another process; "mux" leaves it released to a
// multiplexer that has not run yet; "queued" leaves it released to one of
// two queued activities, so the other one still waits in the queue.
func driveToken(eng *sim.Engine, c *Core, state string) {
	eng.Spawn("holder", func(p *sim.Proc) { c.Acquire(p, false) })
	eng.RunUntil(eng.Now())
	switch state {
	case "held":
		return
	case "mux":
		eng.Spawn("mux", func(p *sim.Proc) { c.Acquire(p, true) })
	case "queued":
		for i := 0; i < 2; i++ {
			eng.Spawn("waiter", func(p *sim.Proc) { c.Acquire(p, false) })
		}
	}
	eng.RunUntil(eng.Now())
	c.Release(eng.Now())
}

// TestPollIdle pins WaitForMsg's poll predicate: it holds in the quiescent
// state of a lone polling activity and fails in every state where the next
// poll iteration (BeginOp, check, EndOp) would do work.
func TestPollIdle(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(r *muxRig, a *Act)
		idle bool
	}{
		{"quiescent", func(*muxRig, *Act) {}, true},
		{"token held", func(r *muxRig, _ *Act) { driveToken(r.eng, &r.mux.Core, "held") }, false},
		{"mux waiting", func(r *muxRig, _ *Act) { driveToken(r.eng, &r.mux.Core, "mux") }, false},
		{"activity queued", func(r *muxRig, _ *Act) { driveToken(r.eng, &r.mux.Core, "queued") }, false},
		{"ready activity", func(r *muxRig, _ *Act) {
			b := r.mux.CreateAct(2, "other")
			b.state = actReady
			r.mux.runq = append(r.mux.runq, b)
		}, false},
		{"external event", func(_ *muxRig, a *Act) { a.ext = 1 }, false},
		{"folded message", func(r *muxRig, _ *Act) { r.mux.curExtra = 1 }, false},
		{"unread message", func(r *muxRig, a *Act) { r.d.ResetCur(a.ID, 1) }, false},
		{"not current", func(r *muxRig, _ *Act) { r.mux.cur = nil }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMuxRig(t)
			a := r.spawnAct(1, "waiter", func(a *Act) {
				for {
					a.WaitForMsg()
				}
			})
			r.run(20 * sim.Microsecond)
			if r.mux.cur != a || !a.PollIdle() {
				t.Fatal("a lone activity in WaitForMsg is not polling idle")
			}
			tc.set(r, a)
			if got := a.PollIdle(); got != tc.idle {
				t.Errorf("PollIdle = %v, want %v", got, tc.idle)
			}
		})
	}
}
