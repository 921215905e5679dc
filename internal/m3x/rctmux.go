// Package m3x implements the M³x baseline (Asmussen et al., ATC'19), which
// the paper compares against in §6.4 / Figure 9: tile multiplexing is
// performed *remotely by the controller*. Each user tile runs only a thin
// RCTMux that stops and resumes activities on controller request; the
// controller saves and restores DTU endpoint state over the NoC, makes all
// scheduling decisions, and forwards messages for non-running recipients
// through the slow path.
package m3x

import (
	"fmt"

	"m3v/internal/dtu"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/tilemux"
)

// RCTMux's timing model, in core cycles of the tile or absolute time where
// noted.
const (
	handleMsgCycles int64 = 200 // handling one controller request
	stopCycles      int64 = 250 // stopping the current activity (trap + save regs)
	resumeCycles    int64 = 250 // resuming an activity (restore regs + return)
	yieldCycles     int64 = 100 // the Yield hint, which only costs the call (scheduling is remote)

	computeChunk = 100 * sim.Microsecond // max compute between controller-stop checks
)

// RCTMux is the per-tile remote-controlled multiplexer.
type RCTMux struct {
	eng   *sim.Engine
	clock sim.Clock
	d     *dtu.DTU

	acts map[dtu.ActID]*Act
	cur  *Act

	// Core is the core token, shared with TileMux.
	tilemux.Core

	proc *sim.Proc

	// stopReq is set while the controller waits for the current activity to
	// reach an operation boundary.
	stopReq   bool
	stopSlot  int
	stopValid bool
}

// Act is one activity's tile-side state and its activity.Exec
// implementation for the M³x baseline.
type Act struct {
	ID   dtu.ActID
	Name string

	mux     *RCTMux
	proc    *sim.Proc
	started bool
	exited  bool
}

// New creates an RCTMux bound to a (non-virtualized) DTU.
func New(eng *sim.Engine, clock sim.Clock, d *dtu.DTU) *RCTMux {
	if d.Virtualized() {
		panic("m3x: RCTMux runs on plain DTUs")
	}
	m := &RCTMux{
		eng:   eng,
		clock: clock,
		d:     d,
		acts:  make(map[dtu.ActID]*Act),
	}
	d.SetCurAct(dtu.ActInvalid)
	d.OnMsgArrived = func(act dtu.ActID) {
		if act == dtu.ActTileMux {
			m.proc.Wake()
		}
		m.Idle.WakeAll()
	}
	m.proc = eng.Spawn(fmt.Sprintf("rctmux@%d", d.Tile()), m.loop)
	return m
}

func (m *RCTMux) cy(n int64) sim.Time { return m.clock.Cycles(n) }

// Attach binds an activity's program process (loader interface).
func (m *RCTMux) Attach(id dtu.ActID, p *sim.Proc) *Act {
	a := m.acts[id]
	if a == nil {
		panic(fmt.Sprintf("m3x: attach to unknown activity %d", id))
	}
	a.proc = p
	m.maybeRun(a)
	return a
}

// maybeRun makes a runnable activity current if the core is free. Further
// scheduling is the controller's job.
func (m *RCTMux) maybeRun(a *Act) {
	if a.started && a.proc != nil && m.cur == nil && !a.exited {
		m.cur = a
		m.d.ResetCur(a.ID, m.d.UnreadOf(a.ID))
		a.proc.Wake()
	}
}

// waitRun parks the activity until it is current, honouring stop requests at
// the boundary.
func (m *RCTMux) waitRun(a *Act) {
	for {
		if m.cur == a {
			if !m.stopReq {
				return
			}
			// Honour the controller's stop: step aside and signal.
			m.stopReq = false
			m.cur = nil
			m.proc.Wake()
		}
		a.proc.Park()
	}
}

// --- controller request handling --------------------------------------------

func (m *RCTMux) loop(p *sim.Proc) {
	for {
		if !m.hasWork() {
			p.Park()
			continue
		}
		m.Acquire(p, true)
		// A pending stop completed (the activity parked)?
		if m.stopValid && m.cur == nil && !m.stopReq {
			m.stopValid = false
			p.Sleep(m.cy(stopCycles))
			if err := m.d.Reply(p, tilemux.EpKernRgate, m.stopSlot, proto.Resp(proto.EOK), 0); err != nil {
				panic(fmt.Sprintf("m3x: stop reply failed: %v", err))
			}
		}
		for m.d.HasUnread(tilemux.EpKernRgate) {
			slot, msg, err := m.d.Fetch(p, tilemux.EpKernRgate)
			if err != nil {
				break
			}
			p.Sleep(m.cy(handleMsgCycles))
			resp, deferred := m.handleKernelReq(p, msg.Data, slot)
			if deferred {
				continue
			}
			if err := m.d.Reply(p, tilemux.EpKernRgate, slot, resp, 0); err != nil {
				panic(fmt.Sprintf("m3x: reply failed: %v", err))
			}
		}
		m.Release(m.eng.Now())
		m.Idle.WakeAll() // a stop, kill or switch may concern the idle activity
	}
}

func (m *RCTMux) hasWork() bool {
	if m.d.HasUnread(tilemux.EpKernRgate) {
		return true
	}
	return m.stopValid && m.cur == nil && !m.stopReq
}

func (m *RCTMux) handleKernelReq(p *sim.Proc, data []byte, slot int) ([]byte, bool) {
	op, r, err := proto.ParseOp(data)
	if err != nil {
		return proto.Resp(proto.EInvalid), false
	}
	switch op {
	case proto.OpMuxCreateAct:
		id := dtu.ActID(r.U16())
		name := r.Str()
		m.acts[id] = &Act{ID: id, Name: name, mux: m}
		return proto.Resp(proto.EOK), false
	case proto.OpMuxStartAct:
		a := m.acts[dtu.ActID(r.U16())]
		if a == nil {
			return proto.Resp(proto.EInvalid), false
		}
		a.started = true
		m.maybeRun(a)
		return proto.Resp(proto.EOK), false
	case proto.OpMuxKillAct:
		a := m.acts[dtu.ActID(r.U16())]
		if a != nil {
			a.exited = true
			if m.cur == a {
				m.cur = nil
			}
		}
		return proto.Resp(proto.EOK), false
	case proto.OpMuxSwitch:
		// Stop the current activity; the reply is deferred until it reached
		// an operation boundary.
		if m.cur == nil {
			p.Sleep(m.cy(stopCycles))
			return proto.Resp(proto.EOK), false
		}
		m.stopReq = true
		m.stopSlot = slot
		m.stopValid = true
		return nil, true
	case proto.OpMuxResume:
		id := dtu.ActID(r.U16())
		a := m.acts[id]
		if a == nil || a.proc == nil {
			return proto.Resp(proto.EInvalid), false
		}
		p.Sleep(m.cy(resumeCycles))
		m.cur = a
		m.d.ResetCur(a.ID, m.d.UnreadOf(a.ID))
		a.proc.Wake()
		return proto.Resp(proto.EOK), false
	default:
		return proto.Resp(proto.EInvalid), false
	}
}

// --- activity.Exec implementation -------------------------------------------

// BeginOp waits until the activity is current and takes the core.
func (a *Act) BeginOp() {
	m := a.mux
	m.waitRun(a)
	m.Acquire(a.proc, false)
}

// EndOp releases the core.
func (a *Act) EndOp() {
	m := a.mux
	m.Release(m.eng.Now())
}

// Proc returns the activity's process.
func (a *Act) Proc() *sim.Proc { return a.proc }

// Compute charges core cycles, honouring controller stops at chunk
// boundaries.
func (a *Act) Compute(n int64) { a.ComputeTime(a.mux.cy(n)) }

// ComputeTime charges a duration of computation.
func (a *Act) ComputeTime(d sim.Time) {
	for d > 0 {
		a.BeginOp()
		c := d
		if c > computeChunk {
			c = computeChunk
		}
		a.proc.Sleep(c)
		d -= c
		a.EndOp()
	}
}

// WaitForMsg blocks until the receive gate rg holds an unread message or,
// for rg < 0, until the activity has any unread message. On M³x there is
// no core-request interrupt: a stopped activity simply stays stopped until
// the controller resumes it, and a running one idles until a message
// arrives or an RCTMux pass (a controller stop or kill) concerns it.
func (a *Act) WaitForMsg(rg dtu.EpID) {
	m := a.mux
	for {
		a.BeginOp()
		_, msgs := m.d.CurAct()
		a.EndOp()
		if rg < 0 && msgs > 0 || rg >= 0 && m.d.HasUnread(rg) {
			return
		}
		// Only while current and not asked to stop: a stop set after
		// BeginOp passed waitRun is honoured by the next BeginOp.
		if m.cur == a && !m.stopReq {
			m.Idle.Wait(a.proc)
		}
	}
}

// Yield is a no-op hint on M³x: scheduling is remote.
func (a *Act) Yield() {
	a.BeginOp()
	a.proc.Sleep(a.mux.cy(yieldCycles))
	a.EndOp()
}

// Exit reports termination to the controller through RCTMux's send gate.
func (a *Act) Exit(code int32) {
	m := a.mux
	a.BeginOp()
	a.exited = true
	msg := proto.NewWriter(proto.OpNotifyExit).U16(uint16(a.ID)).U32(uint32(code)).Done()
	if err := m.d.Send(a.proc, dtu.SendArgs{Ep: tilemux.EpKernSgate, Data: msg, ReplyEp: -1}); err != nil {
		panic(fmt.Sprintf("m3x: exit notify failed: %v", err))
	}
	m.cur = nil
	m.Release(m.eng.Now())
	m.proc.Wake() // let RCTMux pick another local activity if one is ready
}

// FixTranslation is a no-op: the plain DTU has no TLB (the M³x baseline runs
// without vDTU address translation).
func (a *Act) FixTranslation(vaddr uint64, perm dtu.Perm) error { return nil }
