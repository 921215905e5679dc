package kernel_test

import (
	"reflect"
	"testing"

	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/kernel"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
)

// recRemote is a kernel.Remote that records what the controller reports
// (the last write per endpoint in configured) and answers OpForward
// itself; everything else behaves as on M³v.
type recRemote struct {
	configured map[noc.TileID]map[dtu.EpID]dtu.Endpoint
	starting   []uint32
	syscalls   []proto.Op
}

func (r *recRemote) Syscall(_ *sim.Proc, _ *kernel.ActEntry, op proto.Op, _ proto.Reader, _ int) ([]byte, bool, bool) {
	r.syscalls = append(r.syscalls, op)
	if op != proto.OpForward {
		return nil, false, false
	}
	return new(proto.Writer).Resp(proto.EOK, 42), false, true
}

func (r *recRemote) Configure(_ *sim.Proc, tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint) (bool, error) {
	if r.configured[tile] == nil {
		r.configured[tile] = make(map[dtu.EpID]dtu.Endpoint)
	}
	r.configured[tile][ep] = conf
	return false, nil
}

func (r *recRemote) AfterSyscall(*sim.Proc) {}

func (r *recRemote) Starting(_ *sim.Proc, act *kernel.ActEntry) {
	r.starting = append(r.starting, act.ID)
}

func (r *recRemote) ReplyFallback(dtu.Message, []byte) bool { return false }

func (r *recRemote) Idle(*sim.Proc) {}

// forward issues an OpForward syscall and returns its answer.
func forward(t *testing.T, a *activity.Activity) (proto.ErrCode, uint64) {
	code, r, err := a.Syscall(new(proto.Writer).Reset(proto.OpForward).U8(0).U64(0).Done())
	if err != nil {
		t.Errorf("forward syscall: %v", err)
		return code, 0
	}
	if code != proto.EOK {
		return code, 0
	}
	return code, r.U64()
}

// TestRemoteSeesControllerEvents boots an M³v system with a recording
// Remote: it must see each created activity's syscall gates being
// configured, the revocation of an activated gate as the zero Endpoint at
// that gate's tile and endpoint, each start once, and every syscall the
// base kernel does not know (OpForward).
func TestRemoteSeesControllerEvents(t *testing.T) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	rec := &recRemote{configured: make(map[noc.TileID]map[dtu.EpID]dtu.Endpoint)}
	sys.Kern.SetRemote(rec)
	procs := sys.Cfg.ProcessingTiles()

	var childID uint32
	var fwdCode proto.ErrCode
	var fwdVal uint64
	var rgEp dtu.EpID
	var activated dtu.Endpoint
	root := sys.SpawnRoot(procs[0], "root", nil, func(a *activity.Activity) {
		rgSel, err := a.SysCreateRGate(2, 64)
		if err != nil {
			t.Errorf("create rgate: %v", err)
			return
		}
		if rgEp, err = a.SysActivate(rgSel); err != nil {
			t.Errorf("activate: %v", err)
			return
		}
		activated = rec.configured[procs[0]][rgEp]
		if err := a.SysRevoke(rgSel); err != nil {
			t.Errorf("revoke: %v", err)
		}
		ref, err := a.Spawn(core.TileSels(a)[procs[1]], procs[1], "child", nil,
			func(*activity.Activity) {})
		if err != nil {
			t.Errorf("spawn: %v", err)
			return
		}
		childID = ref.ID
		if _, err := a.SysWait(ref.ActSel); err != nil {
			t.Errorf("wait: %v", err)
		}
		fwdCode, fwdVal = forward(t, a)
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}

	ctrl := sys.Kern.DTU().Tile()
	for _, id := range []uint32{root.ID, childID} {
		act := sys.Kern.Act(id)
		eps := rec.configured[act.Tile]
		sg, ok := eps[act.SyscallSgate]
		if !ok || sg.Kind != dtu.EpSend || sg.Act != act.Local ||
			sg.TgtTile != ctrl || sg.TgtEp != kernel.EpSyscall || sg.Label != uint64(id) {
			t.Errorf("act %d syscall send gate %d: Configure saw %+v (%v)", id, act.SyscallSgate, sg, ok)
		}
		rg, ok := eps[act.SyscallRgate]
		if !ok || rg.Kind != dtu.EpReceive || rg.Act != act.Local || rg.Slots != 1 {
			t.Errorf("act %d syscall receive gate %d: Configure saw %+v (%v)", id, act.SyscallRgate, rg, ok)
		}
	}
	if activated.Kind != dtu.EpReceive {
		t.Errorf("activation reached Configure as %+v, want a receive endpoint", activated)
	}
	if got, ok := rec.configured[procs[0]][rgEp]; !ok || !reflect.DeepEqual(got, dtu.Endpoint{}) {
		t.Errorf("revocation: Configure last saw %+v (%v) at tile %d ep %d, want the zero Endpoint",
			got, ok, procs[0], rgEp)
	}
	if want := []uint32{root.ID, childID}; !reflect.DeepEqual(rec.starting, want) {
		t.Errorf("Starting ran for %v, want once each for %v", rec.starting, want)
	}
	if want := []proto.Op{proto.OpForward}; !reflect.DeepEqual(rec.syscalls, want) {
		t.Errorf("Remote.Syscall saw %v, want %v", rec.syscalls, want)
	}
	if fwdCode != proto.EOK || fwdVal != 42 {
		t.Errorf("forward answered %v %d, want the Remote's EOK 42", fwdCode, fwdVal)
	}
}

// TestLocalRejectsForward checks that plain M³v, with no Remote installed,
// answers the M³x-only OpForward syscall with EInvalid.
func TestLocalRejectsForward(t *testing.T) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	var code proto.ErrCode
	root := sys.SpawnRoot(sys.Cfg.ProcessingTiles()[0], "root", nil, func(a *activity.Activity) {
		code, _ = forward(t, a)
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}
	if code != proto.EInvalid {
		t.Errorf("forward on M³v answered %v, want EInvalid", code)
	}
}

// idleRemote is a kernel.Remote that, armed by the syscall after arm is
// set, issues one multiplexer request from the controller's next Idle, as
// M³x's time-slice rotation does, and records its answer and whether a
// syscall arrived while that request was in flight.
type idleRemote struct {
	kernel.Remote
	k     *kernel.Kernel
	tile  noc.TileID
	arm   bool
	armed bool
	code  proto.ErrCode
	raced bool
}

func (r *idleRemote) AfterSyscall(*sim.Proc) {
	r.armed, r.arm = r.arm, false
}

func (r *idleRemote) Idle(p *sim.Proc) {
	if !r.armed {
		return
	}
	r.armed = false
	req := new(proto.Writer).Reset(proto.OpMuxCreateAct).U16(99).Str("probe").Done()
	r.code = r.k.MuxRequest(p, r.tile, req)
	r.raced = r.k.DTU().HasUnread(kernel.EpSyscall)
}

// TestSyscallDuringIdleRequest pins that a syscall arriving while the
// controller waits for a multiplexer reply inside Remote.Idle is handled at
// once: that wait takes the controller's wake-up, so the loop must look for
// unread syscalls before it parks, or the caller waits for the next
// unrelated arrival (on M³x, the next time-slice tick).
func TestSyscallDuringIdleRequest(t *testing.T) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	tile := sys.Cfg.ProcessingTiles()[0]
	rem := &idleRemote{Remote: &recRemote{configured: make(map[noc.TileID]map[dtu.EpID]dtu.Endpoint)},
		k: sys.Kern, tile: tile}
	sys.Kern.SetRemote(rem)
	var took sim.Time
	root := sys.SpawnRoot(tile, "root", nil, func(a *activity.Activity) {
		rem.arm = true // the controller idles after this syscall with the request
		if _, err := a.SysCreateRGate(1, 64); err != nil {
			t.Errorf("first syscall: %v", err)
			return
		}
		start := a.Proc().Now()
		if _, err := a.SysCreateRGate(1, 64); err != nil {
			t.Errorf("second syscall: %v", err)
			return
		}
		took = a.Proc().Now() - start
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish: the second syscall was never handled")
	}
	if rem.code != proto.EOK || !rem.raced {
		t.Fatalf("idle request answered %v, syscall during it %v; want EOK and true", rem.code, rem.raced)
	}
	if took > 100*sim.Microsecond {
		t.Errorf("second syscall took %v, want it handled as soon as the idle request returned", took)
	}
}

// TestMapPagesBounds pins OpMapPages' window check against uint64
// wrap-around: physOff plus the mapped size must stay within the memory
// capability, and an offset near 2^64 whose end wraps around to 0 must not
// map the DRAM outside it.
func TestMapPagesBounds(t *testing.T) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	got := map[uint64]proto.ErrCode{}
	root := sys.SpawnRoot(sys.Cfg.ProcessingTiles()[0], "root", nil, func(a *activity.Activity) {
		sel, err := a.SysCreateMGate(2*dtu.PageSize, dtu.PermRW)
		if err != nil {
			t.Errorf("create mgate: %v", err)
			return
		}
		for _, off := range []uint64{dtu.PageSize, 2 * dtu.PageSize, ^uint64(dtu.PageSize - 1)} {
			got[off], _, err = a.Syscall(new(proto.Writer).Reset(proto.OpMapPages).
				U32(a.ID).U64(0x100000).U32(uint32(sel)).U64(off).U32(1).U8(uint8(dtu.PermRW)).Done())
			if err != nil {
				t.Errorf("map at %#x: %v", off, err)
			}
		}
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}
	want := map[uint64]proto.ErrCode{
		dtu.PageSize:              proto.EOK,
		2 * dtu.PageSize:          proto.EPermDenied, // one page past the end
		^uint64(dtu.PageSize - 1): proto.EPermDenied, // physOff+PageSize wraps to 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("OpMapPages answered %v, want %v", got, want)
	}
}

// refillRemote answers OpForward. For the first caller it makes the
// controller's reply fail: it clears the caller's syscall receive
// endpoint. ReplyFallback records the header it was given and whether a
// syscall was waiting in the receive buffer at that point; the slot of
// every forward is recorded.
type refillRemote struct {
	kernel.Remote
	k        *kernel.Kernel
	second   *sim.Proc
	fired    bool
	slots    []int
	fallback bool
	hdr      dtu.Message
	waiting  bool
}

func (r *refillRemote) Syscall(p *sim.Proc, caller *kernel.ActEntry, op proto.Op, _ proto.Reader, slot int) ([]byte, bool, bool) {
	if op != proto.OpForward {
		return nil, false, false
	}
	r.slots = append(r.slots, slot)
	if len(r.slots) == 1 {
		if err := r.k.DTU().ConfigureRemote(p, caller.Tile, caller.SyscallRgate, dtu.Endpoint{}); err != nil {
			panic(err)
		}
	}
	return new(proto.Writer).Resp(proto.EOK), false, true
}

func (r *refillRemote) ReplyFallback(hdr dtu.Message, _ []byte) bool {
	r.fallback = true
	r.hdr = hdr
	r.waiting = r.k.DTU().HasUnread(kernel.EpSyscall)
	return true
}

// TestReplyFallbackAfterRefill pins that a failed syscall reply is routed
// by the header of the syscall it answers. The REPLY frees the syscall's
// receive slot before it learns that the caller has no receive endpoint,
// and a syscall arriving meanwhile takes the same slot (the lowest free
// one). A second activity's forward is started at delays swept across
// that window; in every run the fallback must see the first caller's
// header, and in some run the second forward must have landed in the
// first one's slot before the fallback ran.
func TestReplyFallbackAfterRefill(t *testing.T) {
	refills := 0
	for delay := sim.Time(0); delay <= 20*sim.Microsecond; delay += 100 * sim.Nanosecond {
		sys := core.New(core.FPGAConfig())
		procs := sys.Cfg.ProcessingTiles()
		rem := &refillRemote{Remote: &recRemote{configured: make(map[noc.TileID]map[dtu.EpID]dtu.Endpoint)}, k: sys.Kern}
		sys.Kern.SetRemote(rem)
		first := sys.SpawnRoot(procs[0], "first", nil, func(a *activity.Activity) {
			_, err := a.Spawn(core.TileSels(a)[procs[1]], procs[1], "second", nil, func(b *activity.Activity) {
				rem.second = b.Proc()
				for !rem.fired {
					b.Proc().Park()
				}
				b.Proc().Sleep(delay)
				forward(t, b)
			})
			if err != nil {
				t.Errorf("spawn: %v", err)
				return
			}
			for rem.second == nil {
				a.Compute(1000)
			}
			rem.fired = true
			rem.second.Wake()
			// Its reply endpoint is gone once the Remote answers: this
			// syscall never returns.
			forward(t, a)
		})
		sys.Run(sim.Millisecond)
		sys.Shutdown()
		if !rem.fallback || len(rem.slots) != 2 {
			t.Fatalf("delay %v: fallback %v, %d forwards handled; want a failed reply and 2",
				delay, rem.fallback, len(rem.slots))
		}
		if rem.hdr.SndAct != dtu.ActID(first.ID) || rem.hdr.Label != uint64(first.ID) {
			t.Errorf("delay %v: fallback routed by %v (act %d), want the first caller %d",
				delay, &rem.hdr, rem.hdr.SndAct, first.ID)
		}
		if rem.waiting && rem.slots[1] == rem.slots[0] {
			refills++
		}
	}
	if refills == 0 {
		t.Error("no second forward refilled the slot while the reply was in flight: the sweep misses the window")
	}
}
