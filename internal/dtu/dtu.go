package dtu

import (
	"fmt"
	"math/bits"

	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// coreReqDepth is the depth of the vDTU's core-request queue (paper §3.8:
// "the vDTU needs to maintain a small queue of core requests"). Overruns are
// absorbed by the NoC's packet-based flow control.
const coreReqDepth = 4

// epBlock is the number of endpoint registers allocated together. A DTU
// allocates a block when the first endpoint in it is configured, so a tile
// pays only for the part of the register file it uses. Blocks never move:
// a command keeps a pointer to its endpoint while it waits for the NoC.
const epBlock = 16

// absentEp is what every endpoint of a block that was never configured
// reads as. It stays zero: every writer checks the endpoint's Kind first,
// and EpInvalid is no kind a writer accepts.
var absentEp Endpoint

// coreReq is one queued core request: the activity that received a message
// while not running, plus the trace flow/span of the message that raised it
// (flow 0 and a no-op span when tracing is disabled).
type coreReq struct {
	act  ActID
	flow uint64
	span trace.SpanRef
}

// DTU models one tile's data transfer unit. With virt=true it is the vDTU
// carrying the privileged interface (activity-tagged endpoints, TLB, core
// requests); with virt=false it is the plain DTU used on controller,
// accelerator, and memory tiles — and on all tiles in the M³x baseline.
type DTU struct {
	eng       *sim.Engine
	net       *noc.Network
	tile      noc.TileID
	coreClock sim.Clock
	virt      bool
	mem       *mem.Memory // non-nil on memory tiles
	mediation int64       // extra cycles per unprivileged command (SetMediation)

	eps     [NumEPs / epBlock]*[epBlock]Endpoint // see ep
	tlb     *TLB
	curAct  ActID
	curMsgs int // unread-message count of the current activity (CUR_ACT)

	coreReqs []coreReq

	// curFlow/curSpan hold the trace flow of the in-flight SEND/REPLY
	// command so nested emissions (the TLB check) can attach to it as
	// children; lastFlow keeps the most recent command's flow so the M³x
	// slow path can carry it through the controller in-band. All three are
	// 0 when tracing is disabled.
	curFlow  uint64
	curSpan  trace.SpanRef
	lastFlow uint64

	// freeCmds recycles the state of finished round trips (cmd.go); irqFn
	// is raiseIrq, cached so injecting an interrupt does not allocate.
	freeCmds []*cmd
	irqFn    func()
	// credits queues the credit returns of ACK_MSG commands until their
	// processing delay passed; creditFn is sendCredit, cached like irqFn.
	credits  []creditRet
	creditFn func()

	// OnCoreReq is the core-request interrupt: the vDTU injects it into the
	// core to notify TileMux that a non-running activity received a message.
	OnCoreReq func()
	// OnMsgArrived fires after any message is stored, with the owning
	// activity id. The tile layer uses it to wake blocked receivers.
	OnMsgArrived func(act ActID)
	// OnCredits fires when credits return to a send endpoint.
	OnCredits func(ep EpID)

	// rec is the engine's structured event recorder; m holds this DTU's
	// instruments in the shared metrics registry (always live).
	rec *trace.Recorder
	m   dtuMetrics

	// inj injects command faults and arms transient-failure recovery. Nil
	// (the default) means fault-free commands with no retry machinery.
	inj *fault.Injector
}

// dtuMetrics are the DTU's registry-backed counters, replacing the loose
// exported counter fields of earlier versions. Read them through the
// accessor methods (Sends, Replies, ...).
type dtuMetrics struct {
	sends, replies, fetches, acks, reads, writes *trace.Counter
	coreReqs, nacked                             *trace.Counter
	cmdTime                                      *trace.Histogram
	// coreReqDepth tracks the pending core-request queue continuously (set at
	// every push/ack); occupiedSlots is refreshed by the probe in New.
	coreReqDepth  *trace.Gauge
	occupiedSlots *trace.Gauge
}

func newDTUMetrics(m *trace.Metrics, tile noc.TileID) dtuMetrics {
	c := func(what string) *trace.Counter {
		return m.Counter(fmt.Sprintf("tile%02d.dtu.%s", tile, what))
	}
	return dtuMetrics{
		sends:         c("sends"),
		replies:       c("replies"),
		fetches:       c("fetches"),
		acks:          c("acks"),
		reads:         c("reads"),
		writes:        c("writes"),
		coreReqs:      c("core_reqs_raised"),
		nacked:        c("nacked_deliveries"),
		cmdTime:       m.Histogram(fmt.Sprintf("tile%02d.dtu.cmd_time", tile)),
		coreReqDepth:  m.Gauge(fmt.Sprintf("tile%02d.dtu.core_req_depth", tile)),
		occupiedSlots: m.Gauge(fmt.Sprintf("tile%02d.dtu.occupied_slots", tile)),
	}
}

// New creates a DTU, attaches it to the NoC, and returns it.
func New(eng *sim.Engine, net *noc.Network, tile noc.TileID, coreClock sim.Clock, virt bool) *DTU {
	d := &DTU{
		eng:       eng,
		net:       net,
		tile:      tile,
		coreClock: coreClock,
		virt:      virt,
		curAct:    ActInvalid,
		rec:       eng.Tracer(),
		m:         newDTUMetrics(eng.Tracer().Metrics(), tile),
	}
	d.irqFn = d.raiseIrq
	d.creditFn = d.sendCredit
	if virt {
		d.tlb = NewTLB()
	}
	// Receive-slot occupancy timeline: unacked messages parked in receive
	// buffers across all endpoints. Probe-published, so it costs nothing
	// unless a sampler is armed.
	eng.Tracer().Metrics().AddProbe(func() {
		occ := 0
		for _, blk := range d.eps {
			if blk == nil {
				continue
			}
			for i := range blk {
				if blk[i].Kind == EpReceive {
					occ += bits.OnesCount64(blk[i].occupied)
				}
			}
		}
		d.m.occupiedSlots.Set(int64(occ))
	})
	net.Attach(tile, d)
	return d
}

// NewMemory creates the DTU of a memory tile serving the given DRAM.
func NewMemory(eng *sim.Engine, net *noc.Network, tile noc.TileID, m *mem.Memory) *DTU {
	d := New(eng, net, tile, sim.MHz(100), false)
	d.mem = m
	return d
}

// Tile reports the tile this DTU belongs to.
func (d *DTU) Tile() noc.TileID { return d.tile }

// SetInjector arms fault injection and transient-failure recovery on this
// DTU's commands. A nil injector restores fault-free operation.
func (d *DTU) SetInjector(in *fault.Injector) { d.inj = in }

// Virtualized reports whether this DTU carries the privileged interface.
func (d *DTU) Virtualized() bool { return d.virt }

// TLB exposes the software-loaded TLB (nil on non-virtualized DTUs).
func (d *DTU) TLB() *TLB { return d.tlb }

// CurAct reports the CUR_ACT register: current activity and its
// unread-message count.
func (d *DTU) CurAct() (ActID, int) { return d.curAct, d.curMsgs }

// Ep returns a copy of an endpoint register, for inspection.
func (d *DTU) Ep(ep EpID) Endpoint {
	if ep < 0 || int(ep) >= NumEPs {
		return Endpoint{}
	}
	return *d.ep(ep)
}

// ep returns endpoint register i (0 <= i < NumEPs), or absentEp if its
// block was never configured. Callers check Kind before they write.
//
//m3v:noalloc
func (d *DTU) ep(i EpID) *Endpoint {
	if blk := d.eps[i/epBlock]; blk != nil {
		return &blk[i%epBlock]
	}
	return &absentEp
}

// charge blocks the calling process for n core cycles, modelling MMIO
// register traffic.
func (d *DTU) charge(p *sim.Proc, n int64) {
	if n > 0 {
		p.Sleep(d.coreClock.Cycles(n))
	}
}

// epFor validates that endpoint ep exists, has the wanted kind, and is owned
// by the current activity. Any violation yields ErrUnknownEp so activities
// cannot probe each other's endpoints (paper §3.5).
func (d *DTU) epFor(ep EpID, kind EpKind) (*Endpoint, error) {
	if ep < 0 || int(ep) >= NumEPs {
		return nil, ErrUnknownEp
	}
	e := d.ep(ep)
	if e.Kind != kind {
		return nil, ErrUnknownEp
	}
	if d.virt && e.Act != d.curAct {
		return nil, ErrUnknownEp
	}
	return e, nil
}

// translate runs the vDTU's single TLB check for a command buffer. Buffers
// must not cross a page boundary (paper §3.6). Non-virtualized DTUs and
// TileMux (identity-mapped) skip translation, as do buffers at vaddr 0:
// the model treats address 0 as the activity's pinned message area, which
// is mapped at activity creation (like M³'s environment page) and never
// faults.
func (d *DTU) translate(vaddr uint64, n int, perm Perm) error {
	if n > 0 && (vaddr&^(PageSize-1)) != ((vaddr+uint64(n)-1)&^(PageSize-1)) {
		return ErrPageBoundary
	}
	if vaddr == 0 {
		return nil
	}
	if !d.virt || d.curAct == ActTileMux || d.curAct == ActInvalid {
		return nil
	}
	if _, ok := d.tlb.Lookup(d.curAct, vaddr, perm); !ok {
		d.traceTLB(false, vaddr)
		return ErrTLBMiss
	}
	d.traceTLB(true, vaddr)
	return nil
}

// CheckPMP reports whether a physical access [addr, addr+n) with the given
// permission is allowed by the PMP endpoints (endpoints 0..3, paper §4.1).
// It returns the memory tile and tile-local offset of the access.
func (d *DTU) CheckPMP(addr uint64, n int, perm Perm) (noc.TileID, uint64, error) {
	for i := EpID(0); i < NumPMPEPs; i++ {
		e := d.ep(i)
		if e.Kind != EpMemory || !e.MemPerm.Has(perm) {
			continue
		}
		if off := addr - e.MemBase; addr >= e.MemBase && off <= e.MemSize && uint64(n) <= e.MemSize-off {
			return e.MemTile, addr, nil
		}
	}
	return 0, 0, ErrNoPerm
}

// Deliver implements noc.Handler: the DTU's NoC-facing side.
//
//m3v:simctx
func (d *DTU) Deliver(pkt *noc.Packet) bool {
	switch pl := pkt.Payload.(type) {
	case *cmd:
		if pl.resp {
			pl.complete()
			return true
		}
		return d.serve(pl)
	case creditPacket:
		d.returnCredits(pl.DstEp)
		return true
	default:
		panic(fmt.Sprintf("dtu: tile %d received unknown payload %T", d.tile, pkt.Payload))
	}
}

// deliverMsg stores an incoming message, copying its payload from c's
// buffer into the slot's own. The return value feeds the NoC's flow
// control: false means "retry later".
//
//m3v:noalloc
func (d *DTU) deliverMsg(c *cmd) bool {
	flow := c.msg.Flow
	e := d.ep(c.ep)
	notPresent := e.Kind != EpReceive
	if !notPresent && !d.virt && e.Act != d.curAct && e.Act != ActInvalid && e.Act != ActTileMux {
		// Plain DTU (M³x): only the endpoints of the current activity (and
		// of the resident multiplexer) are present; the message cannot be
		// delivered (paper §3.8).
		notPresent = true
	}
	now := int64(d.eng.Now())
	if notPresent {
		d.rec.EmitSpan(flow, 0, trace.SpanDTUDeliver, now, now, int(d.tile),
			trace.CompDTU, trace.PathNone, int64(c.ep), deliverNoRecipient, 0)
		c.err = ErrNoRecipient // consumed; the error travels back explicitly
		d.eng.After(procTime, c.respondFn)
		return true
	}
	slot := e.freeSlot()
	if slot < 0 {
		d.m.nacked.Inc()
		d.rec.EmitSpan(flow, 0, trace.SpanDTUDeliver, now, now, int(d.tile),
			trace.CompDTU, trace.PathNone, int64(c.ep), deliverNacked, 0)
		return false // receive buffer full: NoC-level backpressure
	}
	if d.virt && e.Act != d.curAct && e.Act != ActInvalid && len(d.coreReqs) >= coreReqDepth {
		// Core-request queue overrun: absorbed by packet flow control
		// (paper §3.8).
		d.m.nacked.Inc()
		d.rec.EmitSpan(flow, 0, trace.SpanDTUDeliver, now, now, int(d.tile),
			trace.CompDTU, trace.PathNone, int64(c.ep), deliverNacked, 0)
		return false
	}
	e.store(slot, c.msg, c.buf)
	// The message was stored by the DTU without controller involvement: the
	// fast-path mark. On M³x a controller-forwarded message also ends here,
	// but its kernel.forward span marks the flow slow, and slow wins.
	d.rec.EmitSpan(flow, 0, trace.SpanDTUDeliver, now, now, int(d.tile),
		trace.CompDTU, trace.PathFast, int64(c.ep), deliverStored, 0)
	if c.crdRet >= 0 {
		// Piggybacked credit return (a reply acknowledges the request).
		d.returnCredits(c.crdRet)
	}
	if e.Act == d.curAct || e.Act == ActInvalid {
		d.curMsgs++
	} else if d.virt {
		d.pushCoreReq(e.Act, flow)
	}
	if d.OnMsgArrived != nil {
		c.act = e.Act
		d.eng.After(procTime, c.arrivedFn)
	}
	d.eng.After(procTime, c.respondFn) // the acknowledgement
	return true
}

func (d *DTU) returnCredits(ep EpID) {
	if ep < 0 || int(ep) >= NumEPs {
		return
	}
	e := d.ep(ep)
	if e.Kind != EpSend || e.Credits >= e.MaxCredits {
		return
	}
	e.Credits++
	if d.OnCredits != nil {
		//m3vlint:ignore noalloc audited callback slot: only tests install OnCredits, to count returned credits
		d.OnCredits(ep)
	}
}

//m3v:noalloc
func (d *DTU) pushCoreReq(act ActID, flow uint64) {
	wasEmpty := len(d.coreReqs) == 0
	span := d.rec.BeginSpan(flow, 0, trace.SpanDTUCoreReq,
		int64(d.eng.Now()), int(d.tile), trace.CompDTU)
	//m3vlint:ignore noalloc amortized growth: AckCoreReq shifts the queue in place, so its capacity stays at the deepest queue once reached
	d.coreReqs = append(d.coreReqs, coreReq{act: act, flow: flow, span: span})
	d.m.coreReqs.Inc()
	d.m.coreReqDepth.Set(int64(len(d.coreReqs)))
	if wasEmpty {
		d.injectIrq()
	}
}

func (d *DTU) injectIrq() {
	if d.OnCoreReq == nil {
		return
	}
	d.eng.After(irqLatency, d.irqFn)
}

// raiseIrq is the delayed half of injectIrq (cached in irqFn).
func (d *DTU) raiseIrq() {
	if len(d.coreReqs) > 0 && d.OnCoreReq != nil {
		d.OnCoreReq()
	}
}
