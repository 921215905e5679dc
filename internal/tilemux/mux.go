// Package tilemux implements TileMux, the tile-local multiplexer of M³v
// (paper §3.3, §4.2). TileMux schedules the activities of one
// general-purpose tile with a preemptive round-robin policy, offers TMCalls
// (wait, yield, exit, translate), maintains page tables and the vDTU's
// software-loaded TLB, and handles the vDTU's core-request interrupts. It
// has no control beyond its own tile: endpoints can only be changed by the
// controller.
package tilemux

import (
	"fmt"

	"m3v/internal/dtu"
	"m3v/internal/fault"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// The endpoints the multiplexer itself uses on its tile (0-3 are the PMP
// endpoints). The controller configures them at boot; RCTMux, the M³x
// baseline's multiplexer, uses the first two as well.
const (
	// EpKernRgate receives requests from the controller (create/start/kill
	// activity, map pages). Owned by ActTileMux.
	EpKernRgate dtu.EpID = 4
	// EpKernSgate sends notifications (activity exits) to the controller.
	EpKernSgate dtu.EpID = 5
	// EpPfRgate receives pager replies to page-fault requests.
	EpPfRgate dtu.EpID = 6
)

// Mux is one TileMux instance.
type Mux struct {
	eng   *sim.Engine
	clock sim.Clock
	d     *dtu.DTU

	acts map[dtu.ActID]*Act
	runq []*Act
	cur  *Act

	// Core is the core token. Its holds bracket all core time, so summing
	// them yields the tile's busy time (the utilization numerator). The
	// sampler's probe flushes the in-progress hold so long computations
	// don't show up as idle-then-spike.
	Core

	muxProc *sim.Proc
	// wake pokes the scheduler; cached once so stall injection can defer
	// the poke without allocating a closure per wakeup.
	wake func()
	// check is the tile's one preemption timer, cached like wake; armed
	// reports whether it is queued (at most once per tile).
	check func()
	armed bool
	// inj injects wakeup stalls. Nil (the default) means prompt pokes.
	inj *fault.Injector
	// muxMsgs is the saved unread count of TileMux's own activity id.
	muxMsgs int
	// w builds TileMux's replies, notifications and page-fault requests.
	w proto.Writer

	// rec is the engine's structured event recorder; the named counters
	// below live in its always-on metrics registry.
	rec           *trace.Recorder
	cCtxSwitches  *trace.Counter
	cIrqs         *trace.Counter
	cPageFaults   *trace.Counter
	cBusyPs       *trace.Counter
	hSwitchTime   *trace.Histogram
	switchTargets map[dtu.ActID]*trace.Counter
}

// New creates a TileMux for the given vDTU, wires its interrupt handlers,
// and starts its housekeeping process. The vDTU must be virtualized.
func New(eng *sim.Engine, clock sim.Clock, d *dtu.DTU) *Mux {
	if !d.Virtualized() {
		panic("tilemux: requires a virtualized DTU")
	}
	reg := eng.Tracer().Metrics()
	pfx := fmt.Sprintf("tile%02d.mux.", d.Tile())
	m := &Mux{
		eng:           eng,
		clock:         clock,
		d:             d,
		acts:          make(map[dtu.ActID]*Act),
		rec:           eng.Tracer(),
		cCtxSwitches:  reg.Counter(pfx + "ctx_switches"),
		cIrqs:         reg.Counter(pfx + "irqs"),
		cPageFaults:   reg.Counter(pfx + "page_faults"),
		cBusyPs:       reg.Counter(pfx + "busy_ps"),
		hSwitchTime:   reg.Histogram(pfx + "switch_time"),
		switchTargets: make(map[dtu.ActID]*trace.Counter),
	}
	// Scheduler-pressure timelines, published at sampler ticks only: ready
	// contexts waiting for the core, activities whose wakeup is pending
	// (messages arrived but not yet dispatched), and the in-progress share of
	// the busy-time counter.
	gRunnable := reg.Gauge(pfx + "runnable")
	gPending := reg.Gauge(pfx + "pending_wakeups")
	reg.AddProbe(func() {
		gRunnable.Set(int64(len(m.runq)))
		pending := 0
		// Order-insensitive: a pure count over the map, no writes.
		for _, a := range m.acts {
			if a.msgs > 0 && a.state != actRunning {
				pending++
			}
		}
		gPending.Set(int64(pending))
		if m.busy {
			now := m.eng.Now()
			m.cBusyPs.Add(int64(now - m.busyStart))
			m.busyStart = now
		}
	})
	d.SetCurAct(ActIdle)
	d.OnCoreReq = func() { m.muxProc.Wake() }
	d.OnMsgArrived = func(act dtu.ActID) {
		if act == dtu.ActTileMux {
			m.muxProc.Wake()
		}
		m.Idle.WakeAll()
	}
	m.muxProc = eng.Spawn(fmt.Sprintf("tilemux@%d", d.Tile()), m.muxLoop)
	m.wake = func() { m.muxProc.Wake() }
	m.check = m.checkSlice
	return m
}

// SetInjector arms wakeup-stall injection on this multiplexer. A nil
// injector restores prompt scheduler pokes.
func (m *Mux) SetInjector(in *fault.Injector) { m.inj = in }

// CtxSwitches reports the number of context switches performed.
func (m *Mux) CtxSwitches() int64 { return m.cCtxSwitches.Value() }

// Irqs reports the number of core-request/message interrupts taken.
func (m *Mux) Irqs() int64 { return m.cIrqs.Value() }

// PageFaults reports the number of page faults forwarded to pagers.
func (m *Mux) PageFaults() int64 { return m.cPageFaults.Value() }

// SwitchTargets returns a snapshot of context switches per destination
// activity (ActIdle for switches to idle), a scheduling diagnostic.
func (m *Mux) SwitchTargets() map[dtu.ActID]int64 {
	out := make(map[dtu.ActID]int64, len(m.switchTargets))
	//m3vlint:ignore detmap order-insensitive: writes into a fresh map keyed by the range key; Counter.Value is a pure read
	for id, c := range m.switchTargets {
		out[id] = c.Value()
	}
	return out
}

// switchTarget returns the per-destination switch counter, creating and
// registering it on first use.
func (m *Mux) switchTarget(id dtu.ActID) *trace.Counter {
	c := m.switchTargets[id]
	if c == nil {
		name := fmt.Sprintf("tile%02d.mux.switch_to.act%d", m.d.Tile(), id)
		if id == ActIdle {
			name = fmt.Sprintf("tile%02d.mux.switch_to.idle", m.d.Tile())
		}
		c = m.rec.Metrics().Counter(name)
		m.switchTargets[id] = c
	}
	return c
}

// DTU returns the tile's vDTU.
func (m *Mux) DTU() *dtu.DTU { return m.d }

// Clock returns the tile's core clock.
func (m *Mux) Clock() sim.Clock { return m.clock }

// cy converts core cycles to time.
func (m *Mux) cy(n int64) sim.Time { return m.clock.Cycles(n) }

// CreateAct registers an activity (normally on a kernel request).
func (m *Mux) CreateAct(id dtu.ActID, name string) *Act {
	a := &Act{
		ID:      id,
		Name:    name,
		mux:     m,
		state:   actCreated,
		pagerEp: -1,
		pages:   make(map[uint64]pte),
	}
	m.acts[id] = a
	return a
}

// Act looks up an activity by id.
func (m *Mux) Act(id dtu.ActID) *Act { return m.acts[id] }

// Attach binds the activity's program process. The process must use the
// returned Act's TMCall methods for all core time and blocking.
func (m *Mux) Attach(id dtu.ActID, p *sim.Proc) *Act {
	a := m.acts[id]
	if a == nil {
		panic(fmt.Sprintf("tilemux: attach to unknown activity %d", id))
	}
	a.proc = p
	m.maybeAdmit(a)
	return a
}

// SetPagerEp wires TileMux's send endpoint towards the activity's pager.
func (m *Mux) SetPagerEp(id dtu.ActID, ep dtu.EpID) { m.acts[id].pagerEp = ep }

// StartAct marks an activity runnable (kernel request).
func (m *Mux) StartAct(id dtu.ActID) {
	a := m.acts[id]
	if a == nil {
		return
	}
	a.started = true
	m.maybeAdmit(a)
}

// maybeAdmit enqueues a created activity once it is both started and has a
// program attached.
func (m *Mux) maybeAdmit(a *Act) {
	if a.started && a.proc != nil && a.state == actCreated {
		m.makeReady(a)
	}
}

// KillAct terminates an activity (kernel request). A currently running
// activity finishes its in-flight operation chunk and is then parked for
// good; its core is handed to the next ready activity.
func (m *Mux) KillAct(id dtu.ActID) {
	a := m.acts[id]
	if a == nil {
		return
	}
	a.killed = true
	for i, x := range m.runq {
		if x == a {
			m.runq = append(m.runq[:i], m.runq[i+1:]...)
			break
		}
	}
	a.state = actExited
	if m.cur == a {
		m.cur = nil
		m.muxProc.Wake() // dispatch a successor once the core frees up
		m.Idle.WakeAll() // an idle victim parks for good
	}
	m.d.TLB().InvalidateAct(id)
}

// makeReady transitions an activity to ready and pokes the scheduler. Safe
// from any context: state changes are instantaneous; the time-consuming
// switch happens in muxLoop or inline in a TMCall.
func (m *Mux) makeReady(a *Act) {
	if a.killed || a.state == actExited || a.state == actReady || a.state == actRunning {
		return
	}
	a.state = actReady
	a.wantMsg = false
	m.runq = append(m.runq, a)
	m.Idle.WakeAll()
	// Injected stall: the activity is on the run queue, but the scheduler
	// poke is deferred — the wakeup happens late, never lost, so liveness
	// shifts by the stall time only.
	if d, ok := m.inj.Stall(a.wakeFlow, int(m.d.Tile())); ok {
		m.eng.After(d, m.wake)
		return
	}
	m.muxProc.Wake()
}

// wakeBlocked is the lost-wakeup rule of paper §4.2: the caller saw
// something pending for a, so if a is blocked in WaitForMsg, the
// check-and-block would lose that wakeup and a becomes ready again.
func (m *Mux) wakeBlocked(a *Act) {
	if a.wantMsg && a.state == actBlocked {
		m.makeReady(a)
	}
}

func (m *Mux) popRun() *Act {
	for len(m.runq) > 0 {
		a := m.runq[0]
		// Shift in place: re-slicing would creep through the array, and
		// the next append would reallocate it on almost every switch.
		m.runq = append(m.runq[:0], m.runq[1:]...)
		if !a.killed && a.state == actReady {
			return a
		}
	}
	return nil
}

// release frees the core token and accounts the hold as busy time.
func (m *Mux) release() { m.cBusyPs.Add(int64(m.Release(m.eng.Now()))) }

// --- switching ------------------------------------------------------------

// span records a TileMux span on this tile from at to now, on flow 0
// unless it belongs to a message.
func (m *Mux) span(flow uint64, name trace.SpanName, at sim.Time, a0, a1, a2 int64) {
	m.rec.EmitSpan(flow, 0, name, int64(at), int64(m.eng.Now()), int(m.d.Tile()), trace.CompTileMux, trace.PathNone, a0, a1, a2)
}

// switchTo performs a context switch to next (nil = idle). The caller holds
// the core token; p is the execution context paying for the switch. The
// previous activity's CUR_ACT count is saved and — per the lost-wakeup rule
// of paper §4.2 — a blocked activity with pending messages is made ready
// again instead of staying blocked.
func (m *Mux) switchTo(p *sim.Proc, next *Act, reason trace.SwitchReason) {
	start := m.eng.Now()
	p.Sleep(m.cy(ctxSwitchCycles))
	nid, nmsgs := ActIdle, 0
	if next != nil {
		nid, nmsgs = next.ID, next.msgs
	}
	old, oldMsgs := m.d.SwitchAct(p, nid, nmsgs)
	// Count the switch only once it completed: a switch still sleeping when
	// the engine stops must not leave the counters out of step with the
	// per-target counts and the span stream.
	m.cCtxSwitches.Inc()
	m.switchTarget(nid).Inc()
	m.hSwitchTime.Observe(int64(m.eng.Now() - start))
	m.span(0, trace.SpanMuxSwitch, start, int64(old), int64(nid), int64(reason))
	if next != nil && next.wakeFlow != 0 {
		// This switch brings the recipient of a traced message onto the
		// core: attribute it to that message's flow.
		m.span(next.wakeFlow, trace.SpanMuxWakeup, start, int64(old), int64(nid), 0)
		next.wakeFlow = 0
	}
	if oa := m.acts[old]; oa != nil {
		oa.msgs = oldMsgs
		if oldMsgs > 0 {
			m.wakeBlocked(oa)
		}
	}
	m.cur = next
	if next != nil {
		next.state = actRunning
		next.preempt = false
		next.sliceEnd = m.eng.Now() + timeslice
		if !m.armed {
			m.armed = true
			m.eng.At(next.sliceEnd, m.check)
		}
		next.proc.Wake()
	}
}

// checkSlice is the preemption timer. Slice ends only move later, so the
// one queued check re-arms at the current slice's end until that end is
// reached. There it disarms and marks the activity for preemption if
// others are ready; an idle tile disarms it too. The next switch re-arms it.
func (m *Mux) checkSlice() {
	a := m.cur
	m.armed = a != nil && a.sliceEnd > m.eng.Now()
	if m.armed {
		m.eng.At(a.sliceEnd, m.check)
	} else if a != nil && len(m.runq) > 0 {
		a.preempt = true
	}
}

// ensureRunning parks the calling activity process until it is current.
// Killed activities never run again.
func (m *Mux) ensureRunning(a *Act) {
	for {
		if a.killed {
			a.parkForever()
		}
		if m.cur == a {
			return
		}
		a.proc.Park()
	}
}

// parkForever stops a killed activity's process for good.
func (a *Act) parkForever() {
	for {
		a.proc.Park()
	}
}

// --- TileMux's own message handling ----------------------------------------

// asMux runs fn with CUR_ACT temporarily switched to TileMux's own activity
// id, which is required to use TileMux's endpoints (paper §4.2). Before
// switching back it drains pending core requests so that no message count is
// lost.
func (m *Mux) asMux(p *sim.Proc, fn func()) {
	old, oldMsgs := m.d.SwitchAct(p, dtu.ActTileMux, m.muxMsgs)
	fn()
	m.drainCoreReqs(p, old, &oldMsgs)
	_, mm := m.d.SwitchAct(p, old, oldMsgs)
	m.muxMsgs = mm
	if oa := m.acts[old]; oa != nil && oldMsgs > 0 {
		m.wakeBlocked(oa)
	}
}

// drainCoreReqs empties the vDTU's core-request queue, routing each request:
// counts for the activity that was current before asMux go to *curMsgs,
// counts for others go to their in-memory counters, blocked recipients are
// made ready, and requests for TileMux itself only mean more messages on its
// own rgates (handled by the caller's fetch loops).
func (m *Mux) drainCoreReqs(p *sim.Proc, curID dtu.ActID, curMsgs *int) {
	for {
		act, flow, ok := m.d.FetchCoreReq(p)
		if !ok {
			return
		}
		m.d.AckCoreReq(p)
		switch act {
		case dtu.ActTileMux:
			m.muxMsgs++
		case curID:
			*curMsgs++
		default:
			if a := m.acts[act]; a != nil {
				a.msgs++
				if a.wakeFlow == 0 {
					// The first pending message's flow claims the next
					// switch to this activity as its wakeup.
					a.wakeFlow = flow
				}
				m.wakeBlocked(a)
			}
		}
	}
}

// hasIrq reports whether a core request or a message to TileMux is pending.
func (m *Mux) hasIrq() bool {
	return m.d.PendingCoreReqs() > 0 || m.d.HasUnread(EpKernRgate) || m.d.HasUnread(EpPfRgate)
}

// hasWork reports whether muxLoop has anything to do.
func (m *Mux) hasWork() bool { return m.hasIrq() || m.cur == nil && len(m.runq) > 0 }

// muxLoop is TileMux's housekeeping process: it runs on core-request
// interrupts and kernel messages, and dispatches when the core is idle.
func (m *Mux) muxLoop(p *sim.Proc) {
	for {
		if !m.hasWork() {
			p.Park()
			continue
		}
		m.Acquire(p, true)
		if m.hasIrq() {
			m.cIrqs.Inc()
			m.span(0, trace.SpanMuxIrq, m.eng.Now(), int64(m.d.PendingCoreReqs()), 0, 0)
			p.Sleep(m.cy(irqCycles))
			m.asMux(p, func() {
				m.handleMuxMsgs(p)
			})
		}
		if m.cur == nil {
			if next := m.popRun(); next != nil {
				m.switchTo(p, next, trace.SwitchDispatch)
			}
		}
		m.release()
	}
}

// handleMuxMsgs processes kernel requests and pager replies. CUR_ACT is
// TileMux (the caller used asMux); the core token is held.
func (m *Mux) handleMuxMsgs(p *sim.Proc) {
	// Core requests are drained by asMux on exit; here we consume the
	// message payloads on TileMux's rgates.
	for m.d.HasUnread(EpKernRgate) {
		slot, msg, err := m.d.Fetch(p, EpKernRgate)
		if err != nil {
			break
		}
		if m.muxMsgs > 0 {
			m.muxMsgs--
		}
		p.Sleep(m.cy(muxMsgCycles))
		resp := m.handleKernelReq(msg.Data)
		if msg.ReplyEp >= 0 {
			if err := m.d.Reply(p, EpKernRgate, slot, resp, 0); err != nil {
				panic(fmt.Sprintf("tilemux: reply to kernel failed: %v", err))
			}
		} else {
			_ = m.d.Ack(p, EpKernRgate, slot)
		}
	}
	for m.d.HasUnread(EpPfRgate) {
		slot, msg, err := m.d.Fetch(p, EpPfRgate)
		if err != nil {
			break
		}
		if m.muxMsgs > 0 {
			m.muxMsgs--
		}
		p.Sleep(m.cy(muxMsgCycles))
		// The reply label carries the faulting activity's id.
		if a := m.acts[dtu.ActID(msg.Label)]; a != nil && a.pfPending {
			a.pfPending = false
			if a.state == actFaulting {
				m.makeReady(a)
			}
		}
		_ = m.d.Ack(p, EpPfRgate, slot)
	}
}

// handleKernelReq decodes and executes one controller request.
func (m *Mux) handleKernelReq(data []byte) []byte {
	op, r, err := proto.ParseOp(data)
	if err != nil {
		return m.w.Resp(proto.EInvalid)
	}
	switch op {
	case proto.OpMuxCreateAct:
		id := dtu.ActID(r.U16())
		name := r.Str()
		if r.Err() != nil {
			return m.w.Resp(proto.EInvalid)
		}
		m.CreateAct(id, name)
		return m.w.Resp(proto.EOK)
	case proto.OpMuxStartAct:
		m.StartAct(dtu.ActID(r.U16()))
		return m.w.Resp(proto.EOK)
	case proto.OpMuxKillAct:
		m.KillAct(dtu.ActID(r.U16()))
		return m.w.Resp(proto.EOK)
	case proto.OpMuxMapPages:
		id := dtu.ActID(r.U16())
		virt, phys := r.U64(), r.U64()
		pages := r.U32()
		perm := dtu.Perm(r.U8())
		a := m.acts[id]
		if a == nil || r.Err() != nil {
			return m.w.Resp(proto.EInvalid)
		}
		for i := uint64(0); i < uint64(pages); i++ {
			a.mapPage(virt>>dtu.PageShift+i, phys>>dtu.PageShift+i, perm)
		}
		return m.w.Resp(proto.EOK)
	case proto.OpMuxSetPager:
		id := dtu.ActID(r.U16())
		ep := dtu.EpID(r.U32())
		a := m.acts[id]
		if a == nil || r.Err() != nil {
			return m.w.Resp(proto.EInvalid)
		}
		a.pagerEp = ep
		return m.w.Resp(proto.EOK)
	case proto.OpMuxUnmapPages:
		id := dtu.ActID(r.U16())
		virt := r.U64()
		pages := r.U32()
		a := m.acts[id]
		if a == nil || r.Err() != nil {
			return m.w.Resp(proto.EInvalid)
		}
		for i := uint64(0); i < uint64(pages); i++ {
			a.unmapPage(virt>>dtu.PageShift + i)
		}
		return m.w.Resp(proto.EOK)
	default:
		return m.w.Resp(proto.EInvalid)
	}
}
