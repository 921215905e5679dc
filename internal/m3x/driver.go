package m3x

import (
	"fmt"

	"m3v/internal/dtu"
	"m3v/internal/kernel"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// The controller-side timing model of the M³x baseline, in controller-core
// cycles or absolute time where noted.
const (
	forwardCycles int64 = 800  // slow-path bookkeeping per forwarded message
	switchCycles  int64 = 1500 // scheduling decision + switch bookkeeping

	// quantum is the controller's time slice; the controller rotates each
	// multiplexed tile among its activities at this period (M³x: "the
	// controller is responsible for scheduling decisions").
	quantum = 2 * sim.Millisecond
)

// Driver is the controller-side half of M³x multiplexing, installed as the
// kernel's Remote: it records every endpoint write in its route table,
// redirects writes for non-running activities into their saved DTU state,
// handles the slow-path Forward syscall, and performs remote context
// switches (stop -> save EPs -> restore EPs -> resume), all serialized in
// the single-threaded controller — the bottleneck Figure 9 measures.
type Driver struct {
	k   *kernel.Kernel
	clk sim.Clock

	// current is the activity each user tile is running (nil = none).
	current map[noc.TileID]uint32
	// saved holds the DTU state of every non-running activity. A restore
	// truncates the activity's set to length 0, so the next save refills
	// the same backing array.
	saved map[uint32][]dtu.EpConf
	// routes records what the controller wrote where: the routing metadata
	// of every configured endpoint, for the slow path.
	routes map[tileEp]route
	// pending are context switches queued during syscall handling, executed
	// after the caller got its reply.
	pending []pendingSwitch
	// live and invalidate are performSwitch's scratch: the endpoints read
	// back from the stopped activity's tile (cleared once saved, so no
	// endpoint outlives the save outside the saved sets) and the ones to
	// clear there.
	live       []dtu.Endpoint
	invalidate []dtu.EpConf

	// started lists all started activities per tile for time-slice rotation;
	// tileOrder keeps the tiles in first-start order so rotation ticks visit
	// them deterministically (map iteration order would vary run to run).
	started   map[noc.TileID][]uint32
	tileOrder []noc.TileID
	tickDue   bool
	eng       *sim.Engine
	rec       *trace.Recorder

	// Forwards and Switches count slow-path events, for reports.
	Forwards int64
	Switches int64
}

// tileEp names one endpoint of one tile.
type tileEp struct {
	tile noc.TileID
	ep   dtu.EpID
}

// route is the controller's record of one configured endpoint: its kind,
// owner and, for a send endpoint, label and target. It holds no receive
// buffer, so it never aliases the messages stored on a tile.
type route struct {
	kind    dtu.EpKind
	act     dtu.ActID
	label   uint64
	tgtTile noc.TileID
	tgtEp   dtu.EpID
}

type pendingSwitch struct {
	tile noc.TileID
	act  uint32
	// flow is the trace flow of the message whose delivery queued this
	// switch (0 when untraced or for time-slice rotations).
	flow uint64
}

// NewDriver installs an M³x driver as the kernel's Remote.
func NewDriver(eng *sim.Engine, k *kernel.Kernel) *Driver {
	d := &Driver{
		k:       k,
		clk:     k.Clock(),
		eng:     eng,
		current: make(map[noc.TileID]uint32),
		saved:   make(map[uint32][]dtu.EpConf),
		routes:  make(map[tileEp]route),
		started: make(map[noc.TileID][]uint32),
		rec:     eng.Tracer(),
	}
	k.SetRemote(d)
	d.armTick()
	return d
}

func (d *Driver) armTick() {
	d.eng.After(quantum, func() {
		d.tickDue = true
		d.k.Poke()
		d.armTick()
	})
}

// Idle rotates multiplexed tiles round robin when a time-slice tick is
// due. This is the controller-driven preemption of M³x.
func (d *Driver) Idle(p *sim.Proc) {
	if !d.tickDue {
		return
	}
	d.tickDue = false
	for _, tile := range d.tileOrder {
		acts := d.started[tile]
		live := acts[:0]
		for _, id := range acts {
			if a := d.k.Act(id); a != nil && !a.Exited {
				live = append(live, id)
			}
		}
		d.started[tile] = live
		if len(live) < 2 {
			continue
		}
		// Rotate to the activity after the current one.
		cur := d.current[tile]
		next := live[0]
		for i, id := range live {
			if id == cur {
				next = live[(i+1)%len(live)]
				break
			}
		}
		if next != cur {
			d.performSwitch(p, tile, next, 0, trace.SpanKernRotate)
		}
	}
}

// ReplyFallback injects a syscall reply into the saved DTU state of a
// stopped caller and restores the piggybacked send credit.
func (d *Driver) ReplyFallback(msg *dtu.Message, resp []byte) bool {
	// The controller's failed Reply command minted the reply's flow; the
	// injected message keeps it so the recipient's fetch still links up.
	flow := d.k.DTU().LastFlow()
	reply := dtu.Message{
		Label:   msg.ReplyLabel,
		SndTile: d.k.DTU().Tile(),
		ReplyEp: -1,
		CrdEp:   -1,
		Flow:    flow,
		Data:    resp,
	}
	if d.injectSaved(uint32(msg.SndAct), msg.ReplyEp, reply, msg.CrdEp) != proto.EOK {
		return false
	}
	// Saved-state injection is controller-mediated delivery: mark the reply
	// flow slow so it resolves to a verdict.
	now := int64(d.eng.Now())
	d.rec.EmitSpan(flow, 0, trace.SpanKernForward, now, now,
		int(d.k.DTU().Tile()), trace.CompKernel, trace.PathSlow, 1, 1, 0)
	return true
}

// injectSaved stores msg in the saved receive endpoint ep of the stopped
// activity owner and returns the piggybacked credit crdEp (if >= 0) to
// its saved send gate.
func (d *Driver) injectSaved(owner uint32, ep dtu.EpID, msg dtu.Message, crdEp dtu.EpID) proto.ErrCode {
	rg := d.savedEp(owner, ep)
	if rg == nil {
		return proto.ENotFound
	}
	if !rg.InjectMessage(msg) {
		return proto.ENoSpace // saved buffer full: retry later
	}
	if crdEp >= 0 {
		if sg := d.savedEp(owner, crdEp); sg != nil && sg.Credits < sg.MaxCredits {
			sg.Credits++
		}
	}
	return proto.EOK
}

// Starting records the activity for rotation, admits the first started
// activity of a tile as its current one, and pushes its saved endpoint state
// (configured while it was not running) onto the tile.
func (d *Driver) Starting(p *sim.Proc, act *kernel.ActEntry) {
	if _, seen := d.started[act.Tile]; !seen {
		d.tileOrder = append(d.tileOrder, act.Tile)
	}
	d.started[act.Tile] = append(d.started[act.Tile], act.ID)
	if d.current[act.Tile] != 0 {
		return
	}
	d.current[act.Tile] = act.ID
	d.restore(p, act.Tile, act.ID)
}

// restore pushes an activity's saved endpoints onto its tile and empties
// its saved set. The set keeps its backing array for the next save; as its
// length is 0, savedEp finds nothing in it, so no caller can reach the
// stale copies whose receive slots now belong to the live tile.
func (d *Driver) restore(p *sim.Proc, tile noc.TileID, act uint32) {
	if set := d.saved[act]; len(set) > 0 {
		extOK(d.k.DTU().WriteEpsRemote(p, tile, set))
		d.saved[act] = set[:0]
	}
}

// extOK panics on a failed external request. The controller's requests
// only fail if the NoC drops a packet for good, which the platform's
// unbounded NoC retries never do.
func extOK(err error) {
	if err != nil {
		panic(fmt.Sprintf("m3x: external request failed: %v", err))
	}
}

// Configure records every endpoint write in the route table and redirects
// a write for an activity that is not current on its tile into its saved
// state. An invalidation (the zero Endpoint) takes its owner from the
// recorded route and drops the route.
func (d *Driver) Configure(p *sim.Proc, tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint) (bool, error) {
	key := tileEp{tile, ep}
	owner := conf.Act
	if conf.Kind == dtu.EpInvalid {
		r, ok := d.routes[key]
		if !ok {
			return false, nil // already cleared: nobody's saved state holds it
		}
		owner = r.act
		delete(d.routes, key)
	} else {
		d.routes[key] = route{kind: conf.Kind, act: conf.Act,
			label: conf.Label, tgtTile: conf.TgtTile, tgtEp: conf.TgtEp}
	}
	if owner == dtu.ActInvalid || owner == dtu.ActTileMux || d.current[tile] == uint32(owner) {
		return false, nil // controller/mux endpoints and the running activity's are live
	}
	// The activity is not running: configure into its saved DTU state.
	d.setSaved(uint32(owner), ep, conf)
	return true, nil
}

// setSaved installs or replaces one endpoint in an activity's saved set.
//
//m3v:noalloc
func (d *Driver) setSaved(act uint32, ep dtu.EpID, conf dtu.Endpoint) {
	set := d.saved[act]
	for i := range set {
		if set[i].Ep == ep {
			set[i].Conf = conf
			return
		}
	}
	//m3vlint:ignore noalloc amortized growth: a restore truncates the set and keeps its backing array, so saves refill it
	d.saved[act] = append(set, dtu.EpConf{Ep: ep, Conf: conf})
}

// savedEp returns a pointer to a saved endpoint of an activity.
func (d *Driver) savedEp(act uint32, ep dtu.EpID) *dtu.Endpoint {
	set := d.saved[act]
	for i := range set {
		if set[i].Ep == ep {
			return &set[i].Conf
		}
	}
	return nil
}

// Syscall implements the Forward slow-path syscall (paper §2.2: "the
// slow path forwards the message to the recipient via the controller, which
// first schedules the recipient and delivers the message afterwards").
func (d *Driver) Syscall(p *sim.Proc, caller *kernel.ActEntry, op proto.Op, r *proto.Reader, slot int) ([]byte, bool, bool) {
	if op != proto.OpForward {
		return nil, false, false
	}
	mode := r.U8()
	// The flow of the failed fast-path attempt travels in-band: the slow
	// path's spans join the same flow as the sender's original command.
	// Always present on the wire (0 when untraced) so traced and untraced
	// runs time identically.
	flow := r.U64()
	d.Forwards++
	start := d.eng.Now()
	p.Sleep(d.clk.Cycles(forwardCycles))
	// Both legs decode into one message; they differ in how it is routed.
	msg := dtu.Message{SndTile: caller.Tile, SndAct: caller.Local, ReplyEp: -1, CrdEp: -1, Flow: flow}
	var tile noc.TileID
	var ep dtu.EpID
	crdEp, leg := dtu.EpID(-1), int64(0)
	if mode == 0 {
		// Request leg: routed through the sender's send gate.
		sgEp := dtu.EpID(r.U32())
		msg.ReplyEp = dtu.EpID(int32(r.U32()))
		msg.ReplyLabel = r.U64()
		msg.Data = r.BytesField()
		sg, ok := d.routes[tileEp{caller.Tile, sgEp}]
		if r.Err() != nil || !ok || sg.kind != dtu.EpSend {
			return proto.Resp(proto.EInvalid), false, true
		}
		msg.Label, tile, ep = sg.label, sg.tgtTile, sg.tgtEp
	} else {
		// Reply leg: routed by the original message's reply coordinates.
		tile = noc.TileID(r.U32())
		ep = dtu.EpID(r.U32())
		msg.Label = r.U64()
		crdEp = dtu.EpID(int32(r.U32()))
		msg.Data = r.BytesField()
		leg = 1
		if r.Err() != nil {
			return proto.Resp(proto.EInvalid), false, true
		}
	}
	span := d.rec.BeginSpan(flow, 0, trace.SpanKernForward,
		int64(start), int(d.k.DTU().Tile()), trace.CompKernel)
	queued := len(d.pending)
	resp := d.deliverSlow(p, tile, ep, msg, crdEp)
	d.rec.EndSpanArgs(span, int64(d.eng.Now()), trace.PathSlow,
		leg, int64(len(d.pending)-queued))
	return resp, false, true
}

// deliverSlow delivers a message on behalf of a sender: directly if the
// recipient is running, into its saved DTU state otherwise (scheduling it
// afterwards). crdEp, if >= 0, is a send-gate credit of the *recipient* to
// restore (the piggybacked credit of a replied-to request).
func (d *Driver) deliverSlow(p *sim.Proc, tile noc.TileID, ep dtu.EpID, msg dtu.Message, crdEp dtu.EpID) []byte {
	rt, ok := d.routes[tileEp{tile, ep}]
	if !ok || rt.kind != dtu.EpReceive {
		return proto.Resp(proto.ENotFound)
	}
	owner := uint32(rt.act)
	if d.current[tile] == owner {
		// The recipient runs: the controller delivers the message itself.
		if err := d.k.DTU().SendRaw(p, tile, ep, msg, crdEp); err != nil {
			return proto.Resp(proto.EUnreachable)
		}
		return proto.Resp(proto.EOK, 0)
	}
	if code := d.injectSaved(owner, ep, msg, crdEp); code != proto.EOK {
		return proto.Resp(code)
	}
	// Schedule the recipient after the caller got its reply.
	d.pending = append(d.pending, pendingSwitch{tile: tile, act: owner, flow: msg.Flow})
	return proto.Resp(proto.EOK, 0)
}

// AfterSyscall executes queued context switches.
func (d *Driver) AfterSyscall(p *sim.Proc) {
	for len(d.pending) > 0 {
		sw := d.pending[0]
		d.pending = d.pending[1:]
		d.performSwitch(p, sw.tile, sw.act, sw.flow, trace.SpanKernSwitch)
	}
}

// performSwitch runs the full M³x remote context switch: stop the current
// activity, pull its DTU state over the NoC, push the target's saved state
// back, and resume. Everything happens inline in the single controller
// process. The switch is recorded as a span of the given name on flow.
func (d *Driver) performSwitch(p *sim.Proc, tile noc.TileID, to uint32, flow uint64, name trace.SpanName) {
	cur := d.current[tile]
	if cur == to {
		return
	}
	d.Switches++
	start := d.eng.Now()
	p.Sleep(d.clk.Cycles(switchCycles))
	k := d.k
	// 1. Stop whatever runs on the tile (reply arrives once it parked).
	if code, _ := k.MuxRequest(p, tile, proto.NewWriter(proto.OpMuxSwitch).Done()); code != proto.EOK {
		panic(fmt.Sprintf("m3x: switch request failed: %d", code))
	}
	te := k.Tile(tile)
	// 2. Save the stopped activity's endpoints.
	if cur != 0 {
		curAct := k.Act(cur)
		if curAct != nil {
			first, count := int(kernel.UserEpFirst), int(te.NextEp-kernel.UserEpFirst)
			if count > 0 {
				live, err := k.DTU().ReadEpsRemote(p, tile, first, count, d.live)
				extOK(err)
				d.live = live
				d.invalidate = d.invalidate[:0]
				for i := range live {
					if live[i].Act == curAct.Local {
						epID := dtu.EpID(first + i)
						d.setSaved(cur, epID, live[i])
						d.invalidate = append(d.invalidate, dtu.EpConf{Ep: epID})
					}
				}
				clear(live)
				if len(d.invalidate) > 0 {
					extOK(k.DTU().WriteEpsRemote(p, tile, d.invalidate))
				}
			}
		}
	}
	// 3. Restore the target's saved endpoints.
	d.restore(p, tile, to)
	// 4. Resume.
	toAct := k.Act(to)
	req := proto.NewWriter(proto.OpMuxResume).U16(uint16(toAct.Local)).Done()
	if code, _ := k.MuxRequest(p, tile, req); code != proto.EOK {
		panic(fmt.Sprintf("m3x: resume failed: %d", code))
	}
	d.current[tile] = to
	d.rec.EmitSpan(flow, 0, name, int64(start), int64(d.eng.Now()),
		int(d.k.DTU().Tile()), trace.CompKernel, trace.PathNone, int64(tile), int64(to), 0)
}
