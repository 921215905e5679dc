package dtu

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// rig is a two-processing-tile + one-memory-tile test fixture.
type rig struct {
	eng  *sim.Engine
	net  *noc.Network
	d0   *DTU // tile 0, vDTU
	d1   *DTU // tile 1, vDTU
	dm   *DTU // tile 2, memory tile
	dram *mem.Memory
}

func newRig(t *testing.T, virt bool) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.New(eng, noc.StarMesh{NumTiles: 4}, noc.DefaultConfig())
	r := &rig{
		eng:  eng,
		net:  net,
		d0:   New(eng, net, 0, sim.MHz(80), virt),
		d1:   New(eng, net, 1, sim.MHz(80), virt),
		dram: mem.New(eng, mem.DefaultConfig(1<<20)),
	}
	r.dm = NewMemory(eng, net, 2, r.dram)
	t.Cleanup(func() { eng.Shutdown() })
	return r
}

// run executes fns as processes and drives the simulation to completion,
// capped at one simulated minute as a deadlock guard.
func (r *rig) run(fns ...func(p *sim.Proc)) {
	for _, fn := range fns {
		r.eng.Spawn("test", fn)
	}
	r.eng.RunUntil(60 * sim.Second)
}

const (
	actA ActID = 1
	actB ActID = 2
)

// setupChannel configures a send EP on d0 (ep 10, owned by actA) pointing at
// a receive EP on d1 (ep 20, owned by the given receiver activity), plus a
// reply receive EP on d0 (ep 11).
func setupChannel(r *rig, recvAct ActID, credits int) {
	r.d0.SetCurAct(actA)
	r.d1.SetCurAct(recvAct)
	must(r.d0.ConfigureLocal(10, SendEP(actA, 1, 20, 0x1234, credits, 256)))
	must(r.d0.ConfigureLocal(11, RecvEP(actA, 4, 256)))
	must(r.d1.ConfigureLocal(20, RecvEP(recvAct, 4, 256)))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestSendFetchReplyAckRoundTrip(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	var replyData []byte
	r.run(func(p *sim.Proc) {
		// Sender on tile 0.
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("ping"), ReplyEp: 11, ReplyLabel: 0x99})
		if err != nil {
			t.Errorf("send: %v", err)
			return
		}
		// Wait for and fetch the reply.
		for !r.d0.HasUnread(11) {
			p.Sleep(sim.Microsecond)
		}
		slot, m, err := r.d0.Fetch(p, 11)
		if err != nil {
			t.Errorf("fetch reply: %v", err)
			return
		}
		if m.Label != 0x99 {
			t.Errorf("reply label = %#x, want 0x99", m.Label)
		}
		replyData = bytes.Clone(m.Data) // the view dies with the Ack
		if err := r.d0.Ack(p, 11, slot); err != nil {
			t.Errorf("ack reply: %v", err)
		}
	}, func(p *sim.Proc) {
		// Receiver on tile 1.
		for !r.d1.HasUnread(20) {
			p.Sleep(sim.Microsecond)
		}
		slot, m, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if string(m.Data) != "ping" {
			t.Errorf("payload = %q, want ping", m.Data)
		}
		if m.Label != 0x1234 {
			t.Errorf("label = %#x, want 0x1234", m.Label)
		}
		if err := r.d1.Reply(p, 20, slot, []byte("pong"), 0); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	if !bytes.Equal(replyData, []byte("pong")) {
		t.Errorf("reply data = %q, want pong", replyData)
	}
	// The reply must have returned the send credit.
	if ep := r.d0.Ep(10); ep.Credits != 4 {
		t.Errorf("credits after RPC = %d, want 4", ep.Credits)
	}
}

// TestSlotReuseNoStaleTail fetches and acks a long message, then sends a
// short one, which lands in the same slot. The short message must have
// exactly its own length and bytes, with no tail of the long one, and a
// view of the long message kept past its ACK_MSG must read the guard
// value: a use after free is loud.
func TestSlotReuseNoStaleTail(t *testing.T) {
	r := newRig(t, false)
	setupChannel(r, actB, 4)
	long := bytes.Repeat([]byte("L"), 200)
	r.run(func(p *sim.Proc) {
		must(r.d0.Send(p, SendArgs{Ep: 10, Data: long, ReplyEp: -1}))
		slot, m, err := r.d1.Fetch(p, 20)
		must(err)
		if !bytes.Equal(m.Data, long) {
			t.Errorf("long message arrived as %d bytes", len(m.Data))
		}
		must(r.d1.Ack(p, 20, slot))
		if !bytes.Equal(m.Data, bytes.Repeat([]byte{freedByte}, len(long))) {
			t.Errorf("view kept past ACK_MSG reads %q..., want the guard value", m.Data[:8])
		}
		must(r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("short"), ReplyEp: -1}))
		slot2, m2, err := r.d1.Fetch(p, 20)
		must(err)
		if slot2 != slot {
			t.Errorf("short message in slot %d, want the freed slot %d", slot2, slot)
		}
		if string(m2.Data) != "short" {
			t.Errorf("reused slot holds %d bytes %q, want \"short\"", len(m2.Data), m2.Data)
		}
	})
}

func TestCreditsExhaustionAndReturn(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 2)
	r.run(func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); !errors.Is(err, ErrNoCredits) {
			t.Errorf("third send err = %v, want ErrNoCredits", err)
		}
	}, func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		// Receiver acks both messages, returning the credits.
		for i := 0; i < 2; i++ {
			slot, _, err := r.d1.Fetch(p, 20)
			if err != nil {
				t.Fatalf("fetch %d: %v", i, err)
			}
			if err := r.d1.Ack(p, 20, slot); err != nil {
				t.Fatalf("ack %d: %v", i, err)
			}
		}
	})
	if ep := r.d0.Ep(10); ep.Credits != 2 {
		t.Errorf("credits after acks = %d, want 2", ep.Credits)
	}
}

func TestEndpointProtectionWrongActivity(t *testing.T) {
	// Paper §3.5: using another activity's endpoint yields "unknown
	// endpoint".
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.d0.SetCurAct(actB) // actB now runs on tile 0; EP 10 belongs to actA
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); !errors.Is(err, ErrUnknownEp) {
			t.Errorf("send err = %v, want ErrUnknownEp", err)
		}
		if _, _, err := r.d0.Fetch(p, 11); !errors.Is(err, ErrUnknownEp) {
			t.Errorf("fetch err = %v, want ErrUnknownEp", err)
		}
	})
}

func TestVDTUDeliversToNonRunningActivity(t *testing.T) {
	// Paper §3.8: the vDTU knows all endpoints of all activities and stores
	// messages regardless of who is running, raising a core request.
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.d1.SetCurAct(actA) // actB (owner of EP 20) is NOT running on tile 1
	coreReqs := 0
	r.d1.OnCoreReq = func() { coreReqs++ }
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1}); err != nil {
			t.Errorf("send to non-running activity: %v", err)
		}
	})
	if coreReqs != 1 {
		t.Errorf("core requests = %d, want 1", coreReqs)
	}
	r.eng.Spawn("mux", func(p *sim.Proc) {
		act, _, ok := r.d1.FetchCoreReq(p)
		if !ok || act != actB {
			t.Errorf("core req = (%v,%v), want (actB,true)", act, ok)
		}
		r.d1.AckCoreReq(p)
	})
	r.eng.Run()
	if r.d1.PendingCoreReqs() != 0 {
		t.Errorf("pending core reqs = %d, want 0", r.d1.PendingCoreReqs())
	}
}

func TestPlainDTURejectsNonRunningRecipient(t *testing.T) {
	// M³x behaviour (paper §2.2): with a non-virtualized DTU, the message
	// cannot be delivered if the recipient is not current; the sender gets
	// ErrNoRecipient and must take the slow path.
	r := newRig(t, false)
	setupChannel(r, actB, 4)
	r.d1.SetCurAct(actA) // actB not running
	r.run(func(p *sim.Proc) {
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), ReplyEp: -1})
		if !errors.Is(err, ErrNoRecipient) {
			t.Errorf("send err = %v, want ErrNoRecipient", err)
		}
	})
	// The failed send must have restored the credit.
	if ep := r.d0.Ep(10); ep.Credits != 4 {
		t.Errorf("credits after failed send = %d, want 4", ep.Credits)
	}
}

func TestReceiveBufferBackpressure(t *testing.T) {
	// Filling all 4 slots NACKs the 5th message at the NoC level until a
	// slot frees up.
	r := newRig(t, true)
	setupChannel(r, actB, 8)
	delivered := 0
	r.run(func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte{byte(i)}, ReplyEp: -1}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
			delivered++
		}
	}, func(p *sim.Proc) {
		// Drain one slot after the buffer has filled.
		p.Sleep(2 * sim.Millisecond)
		slot, _, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		if err := r.d1.Ack(p, 20, slot); err != nil {
			t.Fatalf("ack: %v", err)
		}
	})
	if delivered != 5 {
		t.Errorf("delivered = %d, want 5", delivered)
	}
	if r.d1.NackedDeliveries() == 0 {
		t.Error("expected NACKed deliveries under buffer pressure")
	}
}

func TestTLBMissFailsCommand(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		// actA has no translation for vaddr 0x5000.
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), Vaddr: 0x5000, ReplyEp: -1})
		if !errors.Is(err, ErrTLBMiss) {
			t.Fatalf("send err = %v, want ErrTLBMiss", err)
		}
		// TileMux inserts the translation; the retry succeeds.
		r.d0.InsertTLB(p, actA, 0x5000, 0x84000, PermRW)
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("x"), Vaddr: 0x5000, ReplyEp: -1}); err != nil {
			t.Errorf("retry after TLB fill: %v", err)
		}
	})
	if r.d0.TLB().Misses != 1 || r.d0.TLB().Hits != 1 {
		t.Errorf("TLB hits/misses = %d/%d, want 1/1", r.d0.TLB().Hits, r.d0.TLB().Misses)
	}
}

func TestPageBoundaryRestriction(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		r.d0.InsertTLB(p, actA, 0x5000, 0x84000, PermRW)
		data := make([]byte, 64)
		err := r.d0.Send(p, SendArgs{Ep: 10, Data: data, Vaddr: 0x5FE0, ReplyEp: -1})
		if !errors.Is(err, ErrPageBoundary) {
			t.Errorf("cross-page send err = %v, want ErrPageBoundary", err)
		}
	})
}

func TestMemoryEndpointReadWrite(t *testing.T) {
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermRW)))
	r.run(func(p *sim.Proc) {
		data := []byte("persistent data in dram")
		if err := r.d0.Write(p, 8, 0x100, data, 0); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, len(data))
		if err := r.d0.ReadInto(p, 8, 0x100, got, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("read back %q, want %q", got, data)
		}
	})
	// The bytes must be at DRAM offset MemBase+0x100.
	got := make([]byte, 4)
	if r.dram.ReadAt(0x1100, got); !bytes.Equal(got, []byte("pers")) {
		t.Errorf("dram content = %q, want pers", got)
	}
}

func TestMemoryEndpointBoundsAndPerms(t *testing.T) {
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermR)))
	r.run(func(p *sim.Proc) {
		if err := r.d0.Write(p, 8, 0, []byte("x"), 0); !errors.Is(err, ErrNoPerm) {
			t.Errorf("write to read-only EP err = %v, want ErrNoPerm", err)
		}
		if err := r.d0.ReadInto(p, 8, 0x1FFF, make([]byte, 2), 0); !errors.Is(err, ErrNoPerm) {
			t.Errorf("out-of-bounds read err = %v, want ErrNoPerm", err)
		}
		if err := r.d0.ReadInto(p, 8, 0, make([]byte, 100), 0); err != nil {
			t.Errorf("legal read: %v", err)
		}
	})
}

// TestMemoryBoundsWrap pins the region check against uint64 wrap-around:
// an offset near 2^64 plus the access size wraps to a small number, which
// must not let a READ or WRITE reach the DRAM just below the region.
func TestMemoryBoundsWrap(t *testing.T) {
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermRW)))
	outside := []byte("outside!")
	r.dram.WriteAt(0xff8, outside)
	off := ^uint64(0) - 7 // MemBase+off wraps to 0xff8
	r.run(func(p *sim.Proc) {
		dst := make([]byte, 8)
		if err := r.d0.ReadInto(p, 8, off, dst, 0); !errors.Is(err, ErrNoPerm) {
			t.Errorf("wrapping read = (%q, %v), want ErrNoPerm", dst, err)
		}
		if err := r.d0.Write(p, 8, off, []byte("breached"), 0); !errors.Is(err, ErrNoPerm) {
			t.Errorf("wrapping write err = %v, want ErrNoPerm", err)
		}
	})
	got := make([]byte, 8)
	if r.dram.ReadAt(0xff8, got); !bytes.Equal(got, outside) {
		t.Errorf("DRAM below the region = %q, want %q", got, outside)
	}
}

func TestCheckPMP(t *testing.T) {
	r := newRig(t, true)
	must(r.d0.ConfigureLocal(0, MemEP(ActTileMux, 2, 0x0000, 0x10000, PermRW)))
	must(r.d0.ConfigureLocal(1, MemEP(actA, 2, 0x20000, 0x10000, PermR)))
	if _, _, err := r.d0.CheckPMP(0x8000, 64, PermRW); err != nil {
		t.Errorf("PMP over EP0: %v", err)
	}
	if _, _, err := r.d0.CheckPMP(0x20000, 64, PermR); err != nil {
		t.Errorf("PMP over EP1: %v", err)
	}
	if _, _, err := r.d0.CheckPMP(0x20000, 64, PermW); !errors.Is(err, ErrNoPerm) {
		t.Errorf("PMP write to RO region err = %v, want ErrNoPerm", err)
	}
	if _, _, err := r.d0.CheckPMP(0x40000, 64, PermR); !errors.Is(err, ErrNoPerm) {
		t.Errorf("PMP outside any region err = %v, want ErrNoPerm", err)
	}
	// addr+n wraps around to 0x20, inside EP0's region.
	if _, _, err := r.d0.CheckPMP(^uint64(0)-31, 64, PermR); !errors.Is(err, ErrNoPerm) {
		t.Errorf("PMP access wrapping past 2^64 err = %v, want ErrNoPerm", err)
	}
}

func TestSwitchActAtomicCounts(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("m1"), ReplyEp: -1}); err != nil {
			t.Fatal(err)
		}
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("m2"), ReplyEp: -1}); err != nil {
			t.Fatal(err)
		}
	}, func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		// Tile 1 currently runs actB with 2 unread messages.
		if act, msgs := r.d1.CurAct(); act != actB || msgs != 2 {
			t.Errorf("CUR_ACT = (%v,%d), want (actB,2)", act, msgs)
		}
		old, msgs := r.d1.SwitchAct(p, actA, 0)
		if old != actB || msgs != 2 {
			t.Errorf("SwitchAct returned (%v,%d), want (actB,2)", old, msgs)
		}
		// Switching back restores the saved count.
		r.d1.SwitchAct(p, actB, msgs)
		if act, m := r.d1.CurAct(); act != actB || m != 2 {
			t.Errorf("after switch back CUR_ACT = (%v,%d), want (actB,2)", act, m)
		}
	})
}

func TestCoreReqQueueOverrunBackpressure(t *testing.T) {
	// More simultaneous messages for non-running activities than core
	// request slots: the extra deliveries are NACKed and retried after
	// TileMux drains the queue.
	r := newRig(t, true)
	r.d0.SetCurAct(actA)
	r.d1.SetCurAct(ActTileMux)
	// 6 receive EPs for 6 different non-running activities.
	for i := 0; i < 6; i++ {
		must(r.d0.ConfigureLocal(EpID(30+i), SendEP(actA, 1, EpID(40+i), 0, 1, 64)))
		must(r.d1.ConfigureLocal(EpID(40+i), RecvEP(ActID(10+i), 2, 64)))
	}
	irqs := 0
	r.d1.OnCoreReq = func() { irqs++ }
	r.run(func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := r.d0.Send(p, SendArgs{Ep: EpID(30 + i), Data: []byte("x"), ReplyEp: -1}); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}, func(p *sim.Proc) {
		// TileMux drains core requests slowly.
		for drained := 0; drained < 6; {
			if _, _, ok := r.d1.FetchCoreReq(p); ok {
				r.d1.AckCoreReq(p)
				drained++
			}
			p.Sleep(100 * sim.Microsecond)
		}
	})
	if r.d1.NackedDeliveries() == 0 {
		t.Error("expected NACKs from core-request queue overrun")
	}
	if r.d1.PendingCoreReqs() != 0 {
		t.Errorf("pending core reqs = %d, want 0", r.d1.PendingCoreReqs())
	}
}

func TestExternalRemoteConfiguration(t *testing.T) {
	r := newRig(t, true)
	r.run(func(p *sim.Proc) {
		// The controller (modelled from tile 0) configures tile 1's EP 5.
		conf := SendEP(actB, 0, 7, 0xABC, 3, 128)
		if err := r.d0.ConfigureRemote(p, 1, 5, conf); err != nil {
			t.Fatalf("remote config: %v", err)
		}
		got := r.d1.Ep(5)
		if got.Kind != EpSend || got.Label != 0xABC || got.Credits != 3 {
			t.Errorf("remote EP = %+v", got)
		}
		// The zero endpoint is the invalidation.
		if err := r.d0.ConfigureRemote(p, 1, 5, Endpoint{}); err != nil {
			t.Fatalf("remote invalidate: %v", err)
		}
		if got := r.d1.Ep(5); got.Kind != EpInvalid {
			t.Errorf("EP after invalidate = %v, want invalid", got.Kind)
		}
	})
}

// TestReadEpsRemote reads windows of a remote register file. The result is
// the part of [first, first+count) inside [0, NumEPs): a window that
// misses the file reads nothing, neither panicking past the end nor
// returning the PMP endpoints for a negative first.
func TestReadEpsRemote(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, count int
		want         []EpKind
	}{
		{"in range", 10, 2, []EpKind{EpSend, EpReceive}},
		{"clipped at the end", NumEPs - 1, 3, []EpKind{EpInvalid}},
		{"past the end", 200, 1, nil},
		{"negative first", -5, 3, nil},
		{"negative count", 10, -1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, true)
			must(r.d1.ConfigureLocal(0, MemEP(actA, 2, 0, 4096, PermRW)))
			must(r.d1.ConfigureLocal(10, SendEP(actA, 0, 1, 0x11, 2, 64)))
			must(r.d1.ConfigureLocal(11, RecvEP(actA, 4, 64)))
			var got []EpKind
			r.run(func(p *sim.Proc) {
				eps, err := r.d0.ReadEpsRemote(p, 1, tc.first, tc.count, nil)
				if err != nil {
					t.Errorf("ReadEpsRemote: %v", err)
				}
				for _, e := range eps {
					got = append(got, e.Kind)
				}
			})
			if !slices.Equal(got, tc.want) {
				t.Errorf("ReadEpsRemote(%d, %d) kinds = %v, want %v", tc.first, tc.count, got, tc.want)
			}
		})
	}
}

func TestReplyWithoutReplyEpFails(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("oneway"), ReplyEp: -1}); err != nil {
			t.Fatal(err)
		}
	}, func(p *sim.Proc) {
		p.Sleep(time2ms)
		slot, _, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.d1.Reply(p, 20, slot, []byte("r"), 0); !errors.Is(err, ErrInvalidArgs) {
			t.Errorf("reply to one-way msg err = %v, want ErrInvalidArgs", err)
		}
	})
}

const time2ms = 2 * sim.Millisecond

// TestReplyRetryKeepsRouting retries a REPLY whose transfer timed out
// after its slot was retired and refilled. Each packet gets one try (NoC
// MaxRetries 1) and A's one reply slot is full, so the server's reply to A
// is NACKed and dropped, while B's request lands in the freed slot before
// the drop. A frees its reply slot once B's request is stored. The retry
// must still reach A, and B's request must stay in the slot, unread.
func TestReplyRetryKeepsRouting(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	cfg := noc.DefaultConfig()
	cfg.MaxRetries = 1
	net := noc.New(eng, noc.StarMesh{NumTiles: 4}, cfg)
	dA := New(eng, net, 0, sim.MHz(80), false)
	dS := New(eng, net, 1, sim.MHz(80), false)
	dB := New(eng, net, 3, sim.MHz(80), false)
	dS.SetInjector(fault.New(eng, fault.Config{Seed: 1})) // retries, no faults
	for _, d := range []*DTU{dA, dB} {
		d.SetCurAct(actA)
		must(d.ConfigureLocal(10, SendEP(actA, 1, 20, 0x10, 1, 64)))
		must(d.ConfigureLocal(11, RecvEP(actA, 1, 64)))
	}
	dS.SetCurAct(actB)
	must(dS.ConfigureLocal(20, RecvEP(actB, 1, 64)))
	const fill = 0xF111
	if !dA.ep(11).InjectMessage(Message{Label: fill, ReplyEp: -1, CrdEp: -1, Data: []byte("fill")}) {
		t.Fatal("could not pre-fill A's reply slot")
	}

	var replyErr error
	var aGot string
	replying, replied, bStored := false, false, false
	eng.Spawn("A", func(p *sim.Proc) {
		must(dA.Send(p, SendArgs{Ep: 10, Data: []byte("reqA"), ReplyEp: 11, ReplyLabel: 0xA}))
		for !bStored && !replied {
			p.Sleep(100 * sim.Nanosecond)
		}
		slot, m, err := dA.Fetch(p, 11)
		if err != nil || m.Label != fill {
			t.Errorf("A's first message: %v, %v; want the pre-filled one", m, err)
			return
		}
		must(dA.Ack(p, 11, slot))
		for !dA.HasUnread(11) && !replied {
			p.Sleep(100 * sim.Nanosecond)
		}
		if dA.HasUnread(11) {
			slot, m, err := dA.Fetch(p, 11)
			must(err)
			aGot = fmt.Sprintf("label %#x %q", m.Label, m.Data)
			must(dA.Ack(p, 11, slot))
		}
	})
	eng.Spawn("B", func(p *sim.Proc) {
		for !replying {
			p.Sleep(100 * sim.Nanosecond)
		}
		err := dB.Send(p, SendArgs{Ep: 10, Data: []byte("reqB"), ReplyEp: 11, ReplyLabel: 0xB})
		if err != nil {
			t.Errorf("B's request did not land in the freed slot: %v", err)
		}
		bStored = err == nil
	})
	eng.Spawn("S", func(p *sim.Proc) {
		for !dS.HasUnread(20) {
			p.Sleep(100 * sim.Nanosecond)
		}
		slot, m, err := dS.Fetch(p, 20)
		if err != nil || string(m.Data) != "reqA" {
			t.Errorf("server's first request: %v, %v; want A's", m, err)
			return
		}
		// B polls every 100 ns and SENDs as long as the server REPLYs,
		// so starting 100 to 200 ns ahead puts B's request at the server
		// just after the slot is freed, with the reply still on its way.
		replying = true
		p.Sleep(200 * sim.Nanosecond)
		replyErr = dS.Reply(p, 20, slot, []byte("repA"), 0)
		replied = true
	})
	eng.RunUntil(sim.Second)

	if replyErr != nil {
		t.Errorf("Reply = %v, want nil", replyErr)
	}
	if want := `label 0xa "repA"`; aGot != want {
		t.Errorf("A received %q, want %q", aGot, want)
	}
	if dB.HasUnread(11) {
		t.Error("the reply meant for A reached B")
	}
	if !dS.HasUnread(20) {
		t.Fatal("B's request is no longer unread in the server's slot")
	}
	if e := dS.Ep(20); string(e.slots[0].msg.Data) != "reqB" || e.slots[0].msg.SndTile != 3 {
		t.Errorf("server's slot holds %q from tile %d, want B's request", e.slots[0].msg.Data, e.slots[0].msg.SndTile)
	}
}

// TestAbsentEndpointBlocks: a fresh DTU holds no endpoint block, and
// every endpoint reads as zero through Ep and is unknown to every command;
// configuring ep 127 allocates its one block, and invalidating it, or an
// endpoint of a block that was never configured, allocates nothing.
func TestAbsentEndpointBlocks(t *testing.T) {
	r := newRig(t, true)
	d := r.d0
	d.SetCurAct(actA)
	blocks := func() int {
		n := 0
		for _, blk := range d.eps {
			if blk != nil {
				n++
			}
		}
		return n
	}
	if n := blocks(); n != 0 {
		t.Fatalf("fresh DTU holds %d endpoint blocks, want 0", n)
	}
	for ep := EpID(0); ep < NumEPs; ep++ {
		if got := d.Ep(ep); !reflect.DeepEqual(got, Endpoint{}) {
			t.Fatalf("Ep(%d) of a fresh DTU = %+v, want the zero endpoint", ep, got)
		}
		for _, kind := range []EpKind{EpSend, EpReceive, EpMemory} {
			if _, err := d.epFor(ep, kind); !errors.Is(err, ErrUnknownEp) {
				t.Fatalf("epFor(%d, %v) of a fresh DTU: err %v, want ErrUnknownEp", ep, kind, err)
			}
		}
	}
	conf := SendEP(actA, 1, 20, 0x1234, 1, 64)
	if avg := testing.AllocsPerRun(10, func() {
		d.eps[127/epBlock] = nil
		must(d.ConfigureLocal(127, conf))
	}); avg != 1 {
		t.Errorf("configuring ep 127: %.1f allocs, want 1 (its block)", avg)
	}
	if n := blocks(); n != 1 {
		t.Errorf("after configuring ep 127: %d blocks, want 1", n)
	}
	if e, err := d.epFor(127, EpSend); err != nil || e.Label != 0x1234 {
		t.Errorf("epFor(127) after configuring = %+v, %v", e, err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		must(d.ConfigureLocal(127, Endpoint{}))
		must(d.ConfigureLocal(0, Endpoint{})) // block 0 was never configured
	}); avg != 0 {
		t.Errorf("invalidating ep 127 and ep 0: %.1f allocs, want 0", avg)
	}
	if n := blocks(); n != 1 || d.Ep(127).Kind != EpInvalid {
		t.Errorf("after invalidating: %d blocks, ep 127 kind %v; want 1, invalid", n, d.Ep(127).Kind)
	}
	if !reflect.DeepEqual(absentEp, Endpoint{}) {
		t.Errorf("the shared absent endpoint changed: %+v", absentEp)
	}
}

func TestMessageTooLarge(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(func(p *sim.Proc) {
		big := make([]byte, 300) // EP max is 256
		if err := r.d0.Send(p, SendArgs{Ep: 10, Data: big, ReplyEp: -1}); !errors.Is(err, ErrMsgTooLarge) {
			t.Errorf("oversized send err = %v, want ErrMsgTooLarge", err)
		}
	})
}

func TestFetchEmptyReturnsNoMessage(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	r.run(nil2(func(p *sim.Proc) {
		r.d1.SetCurAct(actB)
		if _, _, err := r.d1.Fetch(p, 20); !errors.Is(err, ErrNoMessage) {
			t.Errorf("fetch empty err = %v, want ErrNoMessage", err)
		}
	}))
}

func nil2(f func(p *sim.Proc)) func(p *sim.Proc) { return f }

// mediationTimes runs one of each unprivileged command plus two privileged
// ones on a fresh rig and reports each command's duration. m >= 0 arms
// SetMediation(m) on both DTUs; m < 0 leaves them as New returns them.
func mediationTimes(t *testing.T, m int64) map[string]sim.Time {
	r := newRig(t, true)
	if m >= 0 {
		r.d0.SetMediation(m)
		r.d1.SetMediation(m)
	}
	setupChannel(r, actB, 4)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0x1000, 0x2000, PermRW)))
	got := make(map[string]sim.Time)
	timed := func(name string, fn func() error) {
		start := r.eng.Now()
		if err := fn(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		got[name] = r.eng.Now() - start
	}
	r.run(func(p *sim.Proc) {
		timed("send", func() error {
			return r.d0.Send(p, SendArgs{Ep: 10, Data: []byte("ping"), ReplyEp: 11})
		})
		for !r.d0.HasUnread(11) {
			p.Sleep(sim.Microsecond)
		}
		var slot int
		timed("fetch", func() (err error) {
			slot, _, err = r.d0.Fetch(p, 11)
			return err
		})
		timed("ack", func() error { return r.d0.Ack(p, 11, slot) })
		timed("write", func() error { return r.d0.Write(p, 8, 0, []byte("data"), 0) })
		timed("read", func() error { return r.d0.ReadInto(p, 8, 0, make([]byte, 4), 0) })
		timed("switch_act", func() error {
			r.d0.SwitchAct(p, actA, 0)
			return nil
		})
		timed("fetch_core_req", func() error {
			r.d0.FetchCoreReq(p)
			return nil
		})
	}, func(p *sim.Proc) {
		for !r.d1.HasUnread(20) {
			p.Sleep(sim.Microsecond)
		}
		slot, _, err := r.d1.Fetch(p, 20)
		if err != nil {
			t.Fatalf("fetch: %v", err)
		}
		timed("reply", func() error { return r.d1.Reply(p, 20, slot, []byte("pong"), 0) })
	})
	return got
}

// TestSetMediation pins the §3.5 ablation knob: mediation m makes every
// unprivileged command exactly m core cycles slower, leaves privileged
// commands alone, and a fresh DTU behaves as SetMediation(0).
func TestSetMediation(t *testing.T) {
	const m = 2200
	fresh := mediationTimes(t, -1)
	zero := mediationTimes(t, 0)
	mediated := mediationTimes(t, m)
	if len(fresh) != 8 {
		t.Fatalf("timed %d commands, want 8: %v", len(fresh), fresh)
	}
	extra := sim.MHz(80).Cycles(m)
	for name, base := range fresh {
		if zero[name] != base {
			t.Errorf("%s: %v with SetMediation(0), %v on a fresh DTU", name, zero[name], base)
		}
		want := base + extra
		if name == "switch_act" || name == "fetch_core_req" {
			want = base
		}
		if mediated[name] != want {
			t.Errorf("%s: %v with mediation %d, want %v (unmediated %v)", name, mediated[name], m, want, base)
		}
	}
}
