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
	must(r.d.ConfigureLocal(EpKernRgate, dtu.RecvEP(dtu.ActTileMux, 4, 128)))
	must(r.d.ConfigureLocal(EpKernSgate, dtu.SendEP(dtu.ActTileMux, 1, kEpNotifyRgate, 0, 2, 64)))
	must(r.d.ConfigureLocal(EpPfRgate, dtu.RecvEP(dtu.ActTileMux, 4, 64)))
	// Kernel endpoints on tile 1.
	must(r.kd.ConfigureLocal(kEpNotifyRgate, dtu.RecvEP(dtu.ActInvalid, 8, 64)))
	must(r.kd.ConfigureLocal(kEpMuxSgate, dtu.SendEP(dtu.ActInvalid, 0, EpKernRgate, 0, 2, 128)))
	must(r.kd.ConfigureLocal(kEpMuxReply, dtu.RecvEP(dtu.ActInvalid, 2, 64)))
	r.mux = New(eng, sim.MHz(80), r.d)
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
				a.WaitForMsg(18)
			}
		}
		a.Exit(0)
	})
	r.spawnAct(2, "server", func(a *Act) {
		for i := 0; i < rounds; i++ {
			for !r.d.HasUnread(17) {
				a.WaitForMsg(17)
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
	// A single activity waiting for a remote message idles on the core
	// instead of blocking (paper §3.7).
	r := newMuxRig(t)
	must(r.d.ConfigureLocal(16, dtu.RecvEP(1, 2, 64)))
	must(r.kd.ConfigureLocal(10, dtu.SendEP(dtu.ActInvalid, 0, 16, 0xAB, 1, 64)))
	var recvAt sim.Time
	r.spawnAct(1, "waiter", func(a *Act) {
		for !r.d.HasUnread(16) {
			a.WaitForMsg(16)
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
	// The arrival wakes the idle waiter: latency after arrival is the
	// command costs, far below a timeslice.
	if recvAt > 600*sim.Microsecond {
		t.Errorf("received at %v, want < 600us", recvAt)
	}
	if r.mux.CtxSwitches() != 1 {
		// Exactly the initial dispatch from idle; none during the wait.
		t.Errorf("ctx switches = %d, want 1 (idling, not blocking)", r.mux.CtxSwitches())
	}
}

func TestKernelRequestsCreateStartMapKill(t *testing.T) {
	r := newMuxRig(t)
	started := false
	r.eng.Spawn("kernel", func(p *sim.Proc) {
		if code := kernelCall(t, r, p, new(proto.Writer).Reset(proto.OpMuxCreateAct).U16(7).Str("newact").Done()); code != proto.EOK {
			t.Errorf("create: code %d", code)
		}
		if r.mux.Act(7) == nil {
			t.Error("activity 7 not created")
		}
		// Map 4 pages at 0x10000 -> 0x80000.
		req := new(proto.Writer).Reset(proto.OpMuxMapPages).
			U16(7).U64(0x10000).U64(0x80000).U32(4).U8(uint8(dtu.PermRW)).Done()
		if code := kernelCall(t, r, p, req); code != proto.EOK {
			t.Errorf("map: code %d", code)
		}
		a := r.mux.Act(7)
		if e, ok := a.pages[0x10]; !ok || e.ppage != 0x80 {
			t.Errorf("pte[0x10] = %+v, ok=%v", e, ok)
		}
		if code := kernelCall(t, r, p, new(proto.Writer).Reset(proto.OpMuxStartAct).U16(7).Done()); code != proto.EOK {
			t.Errorf("start: code %d", code)
		}
		started = true
		if code := kernelCall(t, r, p, new(proto.Writer).Reset(proto.OpMuxKillAct).U16(7).Done()); code != proto.EOK {
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
		req := new(proto.Writer).Reset(proto.OpMuxMapPages).
			U16(act).U64(vaddr).U64(0xA0000).U32(1).U8(uint8(dtu.PermRW)).Done()
		if code := kernelCall(t, r, p, req); code != proto.EOK {
			t.Errorf("map: code %d", code)
		}
		// Answer the fault.
		if err := r.kd.Reply(p, 12, slot, new(proto.Writer).Resp(proto.EOK), 0); err != nil {
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

// wakeRow is one wake source of an idle WaitForMsg. The waiter, activity 1,
// waits on rg while no other activity is ready; at T a test process runs
// trigger. The waiter acts on the wake by returning from WaitForMsg or, with
// switches set, by switching to activity 2. want, if set, is when that must
// happen for trigger time T; folded requires the waiter's message to arrive
// inside asMux.
type wakeRow struct {
	name     string
	rg       dtu.EpID
	switches bool
	folded   bool
	setup    func(r *muxRig, w *wakeRun)
	trigger  func(r *muxRig, p *sim.Proc)
	want     func(w *wakeRun, T sim.Time) sim.Time
}

// wakeRun is what one run of a wake row observes.
type wakeRun struct {
	arrived  sim.Time // OnMsgArrived for the waiter (0 = none)
	folded   bool     // the waiter's message arrived while CUR_ACT was TileMux
	returned sim.Time // the waiter's WaitForMsg returned (0 = never)
	started  sim.Time // activity 2 first held the core (0 = never)
}

// epSender is a send gate on tile 2 towards the waiter's receive gate 16.
const epSender dtu.EpID = 10

// senderDTU attaches a plain DTU to tile 2 with a send gate to the waiter.
func senderDTU(r *muxRig) *dtu.DTU {
	d := dtu.New(r.eng, r.net, 2, sim.MHz(100), false)
	must(d.ConfigureLocal(epSender, dtu.SendEP(dtu.ActInvalid, 0, 16, 0x51, 1, 64)))
	return d
}

// runWake runs row tc with its trigger at T.
func runWake(t *testing.T, tc wakeRow, T sim.Time) wakeRun {
	t.Helper()
	r := newMuxRig(t)
	var w wakeRun
	must(r.d.ConfigureLocal(16, dtu.RecvEP(1, 2, 64)))
	arrived := r.d.OnMsgArrived
	r.d.OnMsgArrived = func(act dtu.ActID) {
		if act == 1 && w.arrived == 0 {
			w.arrived = r.eng.Now()
			cur, _ := r.d.CurAct()
			w.folded = cur == dtu.ActTileMux
		}
		arrived(act)
	}
	r.spawnAct(1, "waiter", func(a *Act) {
		a.WaitForMsg(tc.rg)
		w.returned = a.Proc().Now()
	})
	if tc.setup != nil {
		tc.setup(r, &w)
	}
	r.eng.Spawn("trigger", func(p *sim.Proc) {
		p.Sleep(T)
		if r.mux.Idle.Len() != 1 {
			t.Errorf("%d processes idle before the trigger, want the waiter alone", r.mux.Idle.Len())
		}
		tc.trigger(r, p)
	})
	r.run(T + 200*sim.Microsecond)
	return w
}

// TestIdleWakeSources pins every wake source of an idle WaitForMsg: the
// waiter acts on it at the trigger's sim time plus the modelled costs of
// what it does next, whatever the trigger's offset within a microsecond.
func TestIdleWakeSources(t *testing.T) {
	switchCost := sim.MHz(80).Cycles(ctxSwitchCycles + 60) // + SWITCH_ACT's privileged access
	sendAt := func(delay sim.Time) func(*muxRig, *sim.Proc) {
		return func(r *muxRig, _ *sim.Proc) {
			d := senderDTU(r)
			r.eng.Spawn("sender", func(p *sim.Proc) {
				p.Sleep(delay)
				if err := d.Send(p, dtu.SendArgs{Ep: epSender, Data: []byte("m"), ReplyEp: -1}); err != nil {
					t.Errorf("send: %v", err)
				}
			})
		}
	}
	for _, tc := range []wakeRow{
		{
			// A message for the current activity: its arrival is the wake.
			name:    "message",
			rg:      16,
			trigger: sendAt(0),
			want:    func(w *wakeRun, _ sim.Time) sim.Time { return w.arrived },
		},
		{
			name:    "RaiseExternal",
			rg:      -1,
			trigger: func(r *muxRig, _ *sim.Proc) { r.mux.RaiseExternal(1) },
			want:    func(_ *wakeRun, T sim.Time) sim.Time { return T },
		},
		{
			// makeReady: the waiter switches to the newly ready activity.
			name:     "makeReady",
			rg:       16,
			switches: true,
			setup: func(r *muxRig, w *wakeRun) {
				r.mux.CreateAct(2, "other")
				r.eng.Spawn("other", func(p *sim.Proc) {
					b := r.mux.Attach(2, p)
					b.BeginOp()
					w.started = p.Now()
					b.EndOp()
				})
			},
			trigger: func(r *muxRig, _ *sim.Proc) { r.mux.StartAct(2) },
			want:    func(_ *wakeRun, T sim.Time) sim.Time { return T + switchCost },
		},
		{
			// A message that arrives while TileMux handles a controller
			// request is folded into CUR_ACT by asMux's core-request drain;
			// the waiter sees it once TileMux releases the core.
			name:   "asMux drain",
			rg:     16,
			folded: true,
			trigger: func(r *muxRig, p *sim.Proc) {
				sendAt(6*sim.Microsecond)(r, p)
				req := new(proto.Writer).Reset(proto.OpMuxCreateAct).U16(9).Str("x").Done()
				if err := r.kd.Send(p, dtu.SendArgs{Ep: kEpMuxSgate, Data: req, ReplyEp: kEpMuxReply}); err != nil {
					t.Errorf("send to mux: %v", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cost sim.Time
			for i, off := range []sim.Time{0, 250 * sim.Nanosecond, 730 * sim.Nanosecond} {
				T := 50*sim.Microsecond + off
				w := runWake(t, tc, T)
				got := w.returned
				if tc.switches {
					got = w.started
				}
				if got == 0 {
					t.Fatalf("T=%v: the waiter never acted on the wake", T)
				}
				if tc.folded && !w.folded {
					t.Fatalf("T=%v: the message did not arrive inside asMux", T)
				}
				if tc.want != nil {
					if want := tc.want(&w, T); got != want {
						t.Errorf("T=%v: acted at %v, want %v", T, got, want)
					}
				}
				if i == 0 {
					cost = got - T
				} else if got-T != cost {
					t.Errorf("T=%v: acted %v after the trigger, %v at offset 0: the wake-up depends on the trigger's phase", T, got-T, cost)
				}
			}
		})
	}
}

// TestIdleWakeOnKill pins the KillAct wake: a killed idle waiter leaves the
// idle queue at once and never returns from WaitForMsg, and a successor
// dispatched on the same core is woken by its own message at arrival.
func TestIdleWakeOnKill(t *testing.T) {
	const T = 50 * sim.Microsecond
	r := newMuxRig(t)
	must(r.d.ConfigureLocal(16, dtu.RecvEP(2, 2, 64)))
	var killedBack, back sim.Time
	r.spawnAct(1, "victim", func(a *Act) {
		a.WaitForMsg(-1)
		killedBack = a.Proc().Now()
	})
	r.mux.CreateAct(2, "successor")
	r.eng.Spawn("successor", func(p *sim.Proc) {
		b := r.mux.Attach(2, p)
		b.WaitForMsg(16)
		back = p.Now()
	})
	var arrived sim.Time
	onArrived := r.d.OnMsgArrived
	r.d.OnMsgArrived = func(act dtu.ActID) {
		if act == 2 {
			arrived = r.eng.Now()
		}
		onArrived(act)
	}
	r.eng.Spawn("trigger", func(p *sim.Proc) {
		p.Sleep(T)
		r.mux.KillAct(1)
		if n := r.mux.Idle.Len(); n != 0 {
			t.Errorf("%d processes left idle after the kill, want 0", n)
		}
		r.mux.StartAct(2)
		d := senderDTU(r)
		p.Sleep(100 * sim.Microsecond)
		if err := d.Send(p, dtu.SendArgs{Ep: epSender, Data: []byte("m"), ReplyEp: -1}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	r.run(T + 500*sim.Microsecond)
	if killedBack != 0 {
		t.Errorf("the killed waiter returned from WaitForMsg at %v", killedBack)
	}
	if back == 0 || back != arrived {
		t.Errorf("successor returned at %v, want its message's arrival %v", back, arrived)
	}
}

// TestPreemptAfterFastRedispatch pins the slice end of an activity that is
// dispatched again less than a compute chunk after an earlier dispatch: A
// yields, B yields twice, then A computes 3 ms. A's last chunk, clipped to
// its slice end, is queued before the preemption check re-armed for that
// slice, yet A must still give up the core at the slice end. A 100 µs late
// preemption would hand B the core at 1.144 and 2.268 ms.
func TestPreemptAfterFastRedispatch(t *testing.T) {
	r := newMuxRig(t)
	r.spawnAct(1, "a", func(a *Act) {
		a.Yield()
		a.ComputeTime(3 * sim.Millisecond)
		a.Exit(0)
	})
	var back []sim.Time
	r.spawnAct(2, "b", func(b *Act) {
		for i := 0; i < 2; i++ {
			b.Yield()
			back = append(back, b.Proc().Now())
		}
		b.Exit(0)
	})
	r.run(10 * sim.Millisecond)
	want := []sim.Time{1044250 * sim.Nanosecond, 2068250 * sim.Nanosecond}
	if len(back) != len(want) || back[0] != want[0] || back[1] != want[1] {
		t.Errorf("B got the core back at %d ps, want %d ps", back, want)
	}
}

// TestOnePreemptTimer checks that a tile queues at most one preemption
// check however often it switches, and that a switch allocates nothing.
func TestOnePreemptTimer(t *testing.T) {
	r := newMuxRig(t)
	maxPending := 0
	for id := dtu.ActID(1); id <= 2; id++ {
		r.spawnAct(id, "y", func(a *Act) {
			for {
				a.Yield()
				maxPending = max(maxPending, r.eng.Pending())
			}
		})
	}
	r.run(2 * sim.Millisecond)
	// Per yield: the timer, plus the other activity's pending wakeup.
	if n := r.mux.CtxSwitches(); n < 100 || maxPending > 2 {
		t.Errorf("%d switches left up to %d events queued, want at most 2", n, maxPending)
	}
	before := r.mux.CtxSwitches()
	allocs := testing.AllocsPerRun(10, func() { r.run(r.eng.Now() + 100*sim.Microsecond) })
	if r.mux.CtxSwitches() == before || allocs != 0 {
		t.Errorf("yield round trips allocated %v times per 100 µs, want 0", allocs)
	}
}

// TestPreemptTimerDisarms lets the preemption check fire on a tile whose
// current activity was killed or exited. It must disarm and leave nothing
// queued; the next dispatch re-arms it, so B is preempted at its slice end
// and C first runs 1 ms (plus interrupt and switch) after B did.
func TestPreemptTimerDisarms(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(r *muxRig, a *Act)
	}{
		{"kill", func(r *muxRig, a *Act) {
			r.eng.At(500*sim.Microsecond, func() { r.mux.KillAct(a.ID) })
			a.ComputeTime(5 * sim.Millisecond)
		}},
		{"idle", func(r *muxRig, a *Act) {
			a.ComputeTime(200 * sim.Microsecond)
			a.Exit(0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMuxRig(t)
			r.spawnAct(1, "a", func(a *Act) { tc.run(r, a) })
			r.run(1500 * sim.Microsecond)
			if r.mux.armed || r.mux.cur != nil || r.eng.Pending() != 0 {
				t.Fatalf("idle tile: armed=%v cur=%v pending=%d, want a disarmed, empty queue",
					r.mux.armed, r.mux.cur, r.eng.Pending())
			}
			var cStart sim.Time
			for id := dtu.ActID(2); id <= 3; id++ {
				r.mux.CreateAct(id, "w")
				r.eng.Spawn("w", func(p *sim.Proc) {
					a := r.mux.Attach(id, p)
					if id == 2 {
						a.ComputeTime(3 * sim.Millisecond)
					} else {
						a.Compute(1)
						cStart = p.Now()
					}
					a.Exit(0)
				})
			}
			armed := false
			r.eng.At(2*sim.Millisecond, func() { r.mux.StartAct(2); r.mux.StartAct(3) })
			r.eng.At(2500*sim.Microsecond, func() { armed = r.mux.armed })
			r.run(10 * sim.Millisecond)
			if !armed || cStart != 3021262500*sim.Picosecond {
				t.Errorf("armed=%v, C first ran at %d ps; want armed and 3021262500 ps", armed, cStart)
			}
		})
	}
}
