package activity

import (
	"fmt"

	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/proto"
)

// Syscall performs one system call RPC to the controller and returns the
// parsed response. The reader is the activity's own: it stays valid until
// the next Call.
func (a *Activity) Syscall(req []byte) (proto.ErrCode, *proto.Reader, error) {
	resp, err := a.Call(a.SysSgate, a.SysRgate, req)
	if err != nil {
		return proto.EUnreachable, nil, fmt.Errorf("%s: syscall transport: %w", a.Name, err)
	}
	code, r, err := proto.ParseResp(resp)
	a.r = r
	return code, &a.r, err
}

// syscall1 runs a syscall expecting one result word.
func (a *Activity) syscall1(req []byte) (uint64, error) {
	code, r, err := a.Syscall(req)
	if err != nil {
		return 0, err
	}
	if code != proto.EOK {
		return 0, code.Err()
	}
	return r.U64(), nil
}

// syscall0 runs a syscall expecting no result.
func (a *Activity) syscall0(req []byte) error {
	code, _, err := a.Syscall(req)
	if err != nil {
		return err
	}
	return code.Err()
}

// SysNoop performs a no-op system call (microbenchmarks).
func (a *Activity) SysNoop() error {
	return a.syscall0(a.Msg(proto.OpNoop).Done())
}

// SysCreateRGate creates a receive gate capability.
func (a *Activity) SysCreateRGate(slots, slotSize int) (cap.Sel, error) {
	v, err := a.syscall1(a.Msg(proto.OpCreateRGate).
		U32(uint32(slots)).U32(uint32(slotSize)).Done())
	return cap.Sel(v), err
}

// SysCreateSGate creates a send gate capability targeting one of the
// caller's receive gates.
func (a *Activity) SysCreateSGate(rg cap.Sel, label uint64, credits int) (cap.Sel, error) {
	v, err := a.syscall1(a.Msg(proto.OpCreateSGate).
		U32(uint32(rg)).U64(label).U32(uint32(credits)).Done())
	return cap.Sel(v), err
}

// SysCreateMGate allocates physical memory and returns its capability.
func (a *Activity) SysCreateMGate(size uint64, perm dtu.Perm) (cap.Sel, error) {
	v, err := a.syscall1(a.Msg(proto.OpCreateMGate).
		U64(size).U8(uint8(perm)).Done())
	return cap.Sel(v), err
}

// SysDeriveMGate narrows a memory capability to a window.
func (a *Activity) SysDeriveMGate(sel cap.Sel, off, size uint64, perm dtu.Perm) (cap.Sel, error) {
	v, err := a.syscall1(a.Msg(proto.OpDeriveMGate).
		U32(uint32(sel)).U64(off).U64(size).U8(uint8(perm)).Done())
	return cap.Sel(v), err
}

// SysActivate binds a gate or memory capability to a freshly allocated DTU
// endpoint on the caller's tile.
func (a *Activity) SysActivate(sel cap.Sel) (dtu.EpID, error) {
	return a.SysActivateAt(sel, -1)
}

// SysActivateAt binds a capability to a specific endpoint, reusing it (gate
// re-activation, e.g. per-extent memory gates of the file system). ep = -1
// allocates a fresh endpoint.
func (a *Activity) SysActivateAt(sel cap.Sel, ep dtu.EpID) (dtu.EpID, error) {
	v, err := a.syscall1(a.Msg(proto.OpActivate).
		U32(uint32(sel)).U32(uint32(int32(ep))).Done())
	return dtu.EpID(v), err
}

// SysDelegate copies a capability into another activity's table and returns
// its selector there.
func (a *Activity) SysDelegate(target uint32, sel cap.Sel) (cap.Sel, error) {
	v, err := a.syscall1(a.Msg(proto.OpDelegate).
		U32(target).U32(uint32(sel)).Done())
	return cap.Sel(v), err
}

// SysRevoke revokes a capability and its entire derivation subtree.
func (a *Activity) SysRevoke(sel cap.Sel) error {
	return a.syscall0(a.Msg(proto.OpRevoke).U32(uint32(sel)).Done())
}

// SysCreateSrv registers a service name for an activated receive gate.
func (a *Activity) SysCreateSrv(name string, rg cap.Sel) error {
	return a.syscall0(a.Msg(proto.OpCreateSrv).Str(name).U32(uint32(rg)).Done())
}

// Session describes an open service session.
type Session struct {
	SGateSel cap.Sel // send gate to the service, labelled with the session id
	SessSel  cap.Sel // session capability (for SysSetPager etc.)
	SrvAct   uint32  // the service's global activity id
	ID       uint64  // session id (the label the service sees)
}

// SysOpenSess opens a session with a registered service.
func (a *Activity) SysOpenSess(name string) (Session, error) {
	code, r, err := a.Syscall(a.Msg(proto.OpOpenSess).Str(name).Done())
	if err != nil {
		return Session{}, err
	}
	if code != proto.EOK {
		return Session{}, code.Err()
	}
	sels := r.U64()
	s := Session{
		SGateSel: cap.Sel(sels >> 32),
		SessSel:  cap.Sel(sels & 0xFFFFFFFF),
		SrvAct:   uint32(r.U64()),
		ID:       r.U64(),
	}
	return s, r.Err()
}

// SysCreateActivity creates a child activity on a tile the caller holds a
// capability for.
func (a *Activity) SysCreateActivity(tileSel cap.Sel, tile noc.TileID, name string) (ChildRef, error) {
	code, r, err := a.Syscall(a.Msg(proto.OpCreateActivity).
		U32(uint32(tileSel)).Str(name).Done())
	if err != nil {
		return ChildRef{}, err
	}
	if code != proto.EOK {
		return ChildRef{}, code.Err()
	}
	ref := ChildRef{Tile: tile}
	ref.ActSel = cap.Sel(r.U64())
	ref.ID = uint32(r.U64())
	eps := r.U64()
	ref.SysSgate = dtu.EpID(eps >> 32)
	ref.SysRgate = dtu.EpID(eps & 0xFFFFFFFF)
	return ref, r.Err()
}

// SysStart marks a child activity runnable.
func (a *Activity) SysStart(actSel cap.Sel) error {
	return a.syscall0(a.Msg(proto.OpActivityStart).U32(uint32(actSel)).Done())
}

// SysWait blocks until a child activity exits and returns its exit code.
func (a *Activity) SysWait(actSel cap.Sel) (int32, error) {
	v, err := a.syscall1(a.Msg(proto.OpActivityWait).U32(uint32(actSel)).Done())
	return int32(uint32(v)), err
}

// SysKill terminates a child activity. Its exit code becomes -1.
func (a *Activity) SysKill(actSel cap.Sel) error {
	return a.syscall0(a.Msg(proto.OpActivityKill).U32(uint32(actSel)).Done())
}

// SysMapPages asks the controller to map pages of the caller's memory
// capability into a target activity's address space (pager use).
func (a *Activity) SysMapPages(target uint32, virt uint64, memSel cap.Sel, physOff uint64, pages int, perm dtu.Perm) error {
	return a.syscall0(a.Msg(proto.OpMapPages).
		U32(target).U64(virt).U32(uint32(memSel)).U64(physOff).
		U32(uint32(pages)).U8(uint8(perm)).Done())
}

// SysSetPager binds a pager session (opened by the caller) to a child
// activity: the controller configures the child tile's TileMux with a send
// gate towards the pager and tells it to use it for page faults.
func (a *Activity) SysSetPager(actSel, sessSel cap.Sel) error {
	return a.syscall0(a.Msg(proto.OpSetPager).
		U32(uint32(actSel)).U32(uint32(sessSel)).Done())
}

// forwardRetryMax bounds the resends of a Forward syscall whose delivery
// failed transiently before the sender gives up and surfaces the error.
const forwardRetryMax = 12

// sysForward is the M³x slow path for the request leg: a message the plain
// DTU could not deliver (the recipient is switched out) travels to the
// controller, which delivers it or stores it in the recipient's saved state
// and schedules the recipient (paper §2.2).
func (a *Activity) sysForward(args dtu.SendArgs) error {
	return a.forwardSyscall(a.fw.Reset(proto.OpForward).
		U8(0).
		U64(a.D.LastFlow()).
		U32(uint32(args.Ep)).
		U32(uint32(int32(args.ReplyEp))).
		U64(args.ReplyLabel).
		Bytes(args.Data).
		Done())
}

// sysForwardReply is the M³x slow path for the reply leg, routed by the
// original message's reply coordinates.
func (a *Activity) sysForwardReply(orig *dtu.Message, data []byte) error {
	return a.forwardSyscall(a.fw.Reset(proto.OpForward).
		U8(1).
		U64(a.D.LastFlow()).
		U32(uint32(orig.SndTile)).
		U32(uint32(orig.ReplyEp)).
		U64(orig.ReplyLabel).
		U32(uint32(int32(orig.CrdEp))).
		Bytes(data).
		Done())
}

// forwardSyscall issues one OpForward request, resending on transient
// delivery failures: ENoSpace (the recipient's saved buffer is full —
// "retry later") and EUnreachable (the controller's direct delivery leg
// was dropped on the NoC). The backoff doubles per attempt by burning
// core cycles, so a dropped forward leg recovers in bounded sim-time
// instead of surfacing an error to the workload.
func (a *Activity) forwardSyscall(req []byte) error {
	for attempt := 0; ; attempt++ {
		code, _, err := a.Syscall(req)
		if err != nil {
			return err
		}
		if (code != proto.ENoSpace && code != proto.EUnreachable) || attempt >= forwardRetryMax {
			return code.Err()
		}
		a.Compute(1000 << uint(min(attempt, 6)))
	}
}

// Spawn creates, loads, and starts a child activity running prog.
func (a *Activity) Spawn(tileSel cap.Sel, tile noc.TileID, name string, env map[string]interface{}, prog Program) (ChildRef, error) {
	ref, err := a.SysCreateActivity(tileSel, tile, name)
	if err != nil {
		return ChildRef{}, err
	}
	if a.Loader == nil {
		return ChildRef{}, fmt.Errorf("%s: no loader to start %q", a.Name, name)
	}
	a.Loader.Load(ref, name, func(child *Activity) {
		child.Env = env
		prog(child)
	})
	if err := a.SysStart(ref.ActSel); err != nil {
		return ChildRef{}, err
	}
	return ref, nil
}
