// Package noc models the network-on-chip connecting the tiles of the M³v
// platform: a 2x2 star-mesh of routers (paper §4.1, Figure 4) with per-hop
// latency, link-bandwidth serialization, router contention, and packet-based
// flow control with NACK/retry backpressure (paper §3.8: "queue overruns are
// handled via the packet-based flow control of the on-chip network").
package noc

import (
	"fmt"

	"m3v/internal/fault"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// TileID identifies a tile attached to the network.
type TileID int

// Packet is one NoC transfer. Size covers header plus payload and determines
// serialization time on each traversed link.
type Packet struct {
	Src, Dst TileID
	Size     int         // bytes on the wire
	Payload  interface{} // model-level content, opaque to the NoC
	// Flow is the trace flow ID of the message this packet carries (0 for
	// untraced packets and non-message traffic). Model metadata only: it
	// selects span emission and does not add wire bytes.
	Flow uint64
	// Drop, if set, is invoked when the packet is dropped for good (retry
	// budget exhausted): the sender's chance to time out instead of waiting
	// forever for an acknowledgement. It runs after the packet has been
	// recycled and must not reference it.
	Drop func()
}

// Handler receives packets delivered to a tile. Deliver reports whether the
// tile accepted the packet; false triggers the NoC's retry backpressure.
//
// Deliver must not retain pkt (or schedule closures that read it later): the
// network recycles packets through a free list as soon as delivery completes.
// Payload values are copied out by the type switch in the handler; scalar
// fields like Src must be copied to locals before any deferred use.
type Handler interface {
	Deliver(pkt *Packet) bool
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet) bool

// Deliver calls f(pkt).
func (f HandlerFunc) Deliver(pkt *Packet) bool { return f(pkt) }

// The NoC timing model mirrors the FPGA platform: tile-to-tile latency of
// "dozens of nanoseconds" with a 128-bit 100 MHz NoC link (1.6 GB/s, exactly
// 625 ps per byte).
const (
	perHopLatency = 15 * sim.Nanosecond  // propagation per hop (link + router traversal)
	psPerByte     = 625                  // link serialization, picoseconds per byte
	retryDelay    = 200 * sim.Nanosecond // backoff before retransmitting a NACKed packet
)

// Config holds the NoC's retry budget.
type Config struct {
	MaxRetries int // retries before the packet is dropped (0 = infinite)
}

// DefaultConfig returns unbounded retries: the platform never drops a
// packet for good.
func DefaultConfig() Config { return Config{} }

// Network is the NoC instance. Construct with New.
type Network struct {
	eng      *sim.Engine
	cfg      Config
	handlers []Handler // indexed by TileID

	// Routing tables, precomputed in New. The transmit path is the
	// second-hottest loop in the simulator after the event queue; a flat
	// table load replaces the Manhattan-distance arithmetic of
	// StarMesh.Hops per packet.
	nTiles    int
	latBase   []sim.Time // [src*nTiles+dst] hop latency (no serialization)
	routerTab []int      // [tile] router, mirrors StarMesh.RouterOf

	// routerFree[r] is the earliest time router r can accept the next
	// packet; it models serialization contention at the router.
	routerFree []sim.Time

	// freePkts and freeFlights recycle packets and in-flight transfer state;
	// in steady state a send costs no allocation beyond the payload boxing.
	freePkts    []*Packet
	freeFlights []*inflight

	// rec is the engine's structured event recorder; the named counters
	// below live in its always-on metrics registry.
	rec        *trace.Recorder
	cDelivered *trace.Counter
	cNacked    *trace.Counter
	cDropped   *trace.Counter
	cBytes     *trace.Counter
	gInflight  *trace.Gauge // packets on the wire (incl. queued retries)

	// inj injects packet faults at the transmit edge. Nil (the default)
	// means a perfect interconnect.
	inj *fault.Injector
}

// New creates a network over the given star-mesh. Tiles outside
// [0, topo.NumTiles) cannot be attached or addressed.
func New(eng *sim.Engine, topo StarMesh, cfg Config) *Network {
	reg := eng.Tracer().Metrics()
	tiles := topo.NumTiles
	n := &Network{
		eng:        eng,
		cfg:        cfg,
		handlers:   make([]Handler, tiles),
		nTiles:     tiles,
		latBase:    make([]sim.Time, tiles*tiles),
		routerTab:  make([]int, tiles),
		routerFree: make([]sim.Time, len(routerPos)),
		rec:        eng.Tracer(),
		cDelivered: reg.Counter("noc.delivered"),
		cNacked:    reg.Counter("noc.nacked"),
		cDropped:   reg.Counter("noc.dropped"),
		cBytes:     reg.Counter("noc.bytes"),
		gInflight:  reg.Gauge("noc.inflight"),
	}
	// Per-router backlog timelines: how far each ingress router's free time
	// sits beyond the clock, i.e. the serialization queue ahead of the next
	// packet. Published lazily — the gauges update only when a sampler tick
	// runs the probe.
	backlog := make([]*trace.Gauge, len(routerPos))
	for r := range backlog {
		backlog[r] = reg.Gauge(fmt.Sprintf("noc.router%02d.backlog_ps", r))
	}
	reg.AddProbe(func() {
		now := eng.Now()
		for r, g := range backlog {
			b := n.routerFree[r] - now
			if b < 0 {
				b = 0
			}
			g.Set(int64(b))
		}
	})
	for s := 0; s < tiles; s++ {
		n.routerTab[s] = topo.RouterOf(TileID(s))
		for d := 0; d < tiles; d++ {
			n.latBase[s*tiles+d] = sim.Time(topo.Hops(TileID(s), TileID(d))) * perHopLatency
		}
	}
	return n
}

// Delivered reports the number of packets accepted by their destination.
func (n *Network) Delivered() int64 { return n.cDelivered.Value() }

// Nacked reports the number of delivery attempts rejected by the destination.
func (n *Network) Nacked() int64 { return n.cNacked.Value() }

// Dropped reports the number of packets dropped after exhausting retries.
func (n *Network) Dropped() int64 { return n.cDropped.Value() }

// InFlight reports the packets on the wire, queued retries included.
func (n *Network) InFlight() int64 { return n.gInflight.Value() }

// Bytes reports the total bytes of all delivered packets.
func (n *Network) Bytes() int64 { return n.cBytes.Value() }

// Attach registers the packet handler for a tile. Attaching twice replaces
// the handler.
func (n *Network) Attach(id TileID, h Handler) { n.handlers[id] = h }

// SetInjector arms fault injection on the network. A nil injector restores
// the perfect interconnect.
func (n *Network) SetInjector(in *fault.Injector) { n.inj = in }

// serialization reports the time to push size bytes onto one link.
//
//m3v:noalloc
func (n *Network) serialization(size int) sim.Time {
	return sim.Time(int64(size) * psPerByte)
}

// hopLatency reports the propagation share of a transfer: hops times the
// per-hop latency.
//
//m3v:noalloc
func (n *Network) hopLatency(src, dst TileID) sim.Time {
	return n.latBase[int(src)*n.nTiles+int(dst)]
}

// routerOf reports a tile's router.
//
//m3v:noalloc
func (n *Network) routerOf(t TileID) int { return n.routerTab[t] }

// Latency reports the uncontended transfer time for a packet of the given
// size between two tiles.
//
//m3v:noalloc
func (n *Network) Latency(src, dst TileID, size int) sim.Time {
	return n.hopLatency(src, dst) + n.serialization(size)
}

// NewPacket returns a packet from the network's free list (or a fresh one),
// initialized with the given fields. Packets obtained here and handed to
// Send are recycled automatically when delivery completes.
func (n *Network) NewPacket(src, dst TileID, size int, payload interface{}) *Packet {
	if len(n.freePkts) > 0 {
		pkt := n.freePkts[len(n.freePkts)-1]
		n.freePkts = n.freePkts[:len(n.freePkts)-1]
		pkt.Src, pkt.Dst, pkt.Size, pkt.Payload = src, dst, size, payload
		pkt.Flow = 0
		pkt.Drop = nil
		return pkt
	}
	return &Packet{Src: src, Dst: dst, Size: size, Payload: payload}
}

func (n *Network) releasePkt(pkt *Packet) {
	pkt.Payload = nil // drop the payload and callback references for GC
	pkt.Drop = nil
	n.freePkts = append(n.freePkts, pkt)
}

// inflight is the transfer state of one packet on the wire. It carries the
// retry count and two closures created once per pooled object, so steady-
// state sends schedule without allocating.
type inflight struct {
	n       *Network
	pkt     *Packet
	attempt int
	// span is the noc.xfer span of the current attempt (0 when untraced),
	// begun at its transmit time, before router queueing and path latency.
	span  trace.SpanRef
	fire  func() // cached: fl.deliver
	retry func() // cached: fl.transmit
}

func (n *Network) newInflight(pkt *Packet) *inflight {
	if len(n.freeFlights) > 0 {
		fl := n.freeFlights[len(n.freeFlights)-1]
		n.freeFlights = n.freeFlights[:len(n.freeFlights)-1]
		fl.pkt, fl.attempt, fl.span = pkt, 0, 0
		return fl
	}
	fl := &inflight{n: n, pkt: pkt}
	fl.fire = fl.deliver
	fl.retry = fl.transmit
	return fl
}

func (n *Network) releaseInflight(fl *inflight) {
	fl.pkt = nil
	fl.span = 0
	n.freeFlights = append(n.freeFlights, fl)
}

// Send injects a packet and takes ownership of it. Delivery is scheduled
// after the path latency plus any router contention; if the destination
// rejects it, the packet is retransmitted after retryDelay, up to MaxRetries
// times. The packet is recycled once delivery completes; callers must not
// touch it after Send.
//
//m3v:simctx
func (n *Network) Send(pkt *Packet) {
	n.inj.CountSend()
	n.gInflight.Inc()
	fl := n.newInflight(pkt)
	if pkt.Src == pkt.Dst {
		// Tile-local loopback through the DTU: one hop worth of latency,
		// no router involvement.
		fl.span = n.rec.BeginSpan(pkt.Flow, 0, trace.SpanNoCXfer,
			int64(n.eng.Now()), int(pkt.Dst), trace.CompNoC)
		n.eng.After(perHopLatency+n.serialization(pkt.Size), fl.fire)
		return
	}
	fl.transmit()
}

func (fl *inflight) transmit() {
	n, pkt := fl.n, fl.pkt
	// Injected drop: the attempt is lost before reaching the ingress router.
	// Retransmit after the injector's backoff, charging the retry budget as
	// if the destination had NACKed.
	if backoff, drop := n.inj.Drop(pkt.Flow, int(pkt.Dst), fl.attempt); drop {
		if n.cfg.MaxRetries > 0 && fl.attempt+1 >= n.cfg.MaxRetries {
			n.terminalDrop(fl)
			return
		}
		fl.attempt++
		n.eng.After(backoff, fl.retry)
		return
	}
	ser := n.serialization(pkt.Size)
	delay := n.hopLatency(pkt.Src, pkt.Dst) + ser
	// Router contention: the packet occupies each router on its path for its
	// serialization time. Model the bottleneck via the ingress router.
	r := n.routerOf(pkt.Src)
	now := n.eng.Now()
	start := now
	if n.routerFree[r] > start {
		start = n.routerFree[r]
	}
	n.routerFree[r] = start + ser
	queueing := start - now
	fl.span = n.rec.BeginSpan(pkt.Flow, 0, trace.SpanNoCXfer,
		int64(now), int(pkt.Dst), trace.CompNoC)
	if queueing > 0 {
		// The router-contention share of the transfer, as an enclosed child.
		n.rec.EmitSpan(pkt.Flow, fl.span, trace.SpanNoCQueue,
			int64(now), int64(now+queueing), int(pkt.Dst), trace.CompNoC,
			trace.PathNone, int64(r), 0, 0)
	}
	if n.inj.Dup(pkt.Flow, int(pkt.Dst)) {
		// Ghost duplicate: it books the ingress router a second time (real
		// contention) but is filtered at the destination, so the message is
		// never delivered twice.
		gstart := n.routerFree[r]
		n.routerFree[r] = gstart + ser
		n.eng.After(gstart-now+delay, n.inj.DiscardGhost)
	}
	extra := n.inj.Delay(pkt.Flow, int(pkt.Dst))
	n.eng.After(queueing+delay+extra, fl.fire)
}

// terminalDrop retires a packet whose retry budget is exhausted. The drop is
// counted, reported to the injector's degradation counters, and the packet's
// Drop callback (if any) fires so the sender can time out.
func (n *Network) terminalDrop(fl *inflight) {
	pkt := fl.pkt
	n.cDropped.Inc()
	n.gInflight.Dec()
	n.inj.TerminalDrop(pkt.Flow, int(pkt.Dst), fl.attempt)
	drop := pkt.Drop
	n.releasePkt(pkt)
	n.releaseInflight(fl)
	if drop != nil {
		drop()
	}
}

func (fl *inflight) deliver() {
	n, pkt := fl.n, fl.pkt
	var h Handler
	if d := int(pkt.Dst); d < len(n.handlers) {
		h = n.handlers[d]
	}
	if h == nil {
		panic(fmt.Sprintf("noc: no handler attached to tile %d", pkt.Dst))
	}
	// The noc.xfer span covers the attempt: begun at its transmit (enqueue)
	// time and ended here, at the delivery edge. (An earlier version stamped
	// the packet at the dequeue cycle, which mis-attributed queueing time;
	// TestNoCPacketStampedAtTransmit pins the corrected stamping.)
	now := n.eng.Now()
	if h.Deliver(pkt) {
		n.cDelivered.Inc()
		n.gInflight.Dec()
		n.cBytes.Add(int64(pkt.Size))
		n.rec.EndSpanArgs(fl.span, int64(now), trace.PathNone, int64(fl.attempt), 1)
		n.releasePkt(pkt)
		n.releaseInflight(fl)
		return
	}
	n.cNacked.Inc()
	n.rec.EndSpanArgs(fl.span, int64(now), trace.PathNone, int64(fl.attempt), 0)
	fl.span = 0
	if n.cfg.MaxRetries > 0 && fl.attempt+1 >= n.cfg.MaxRetries {
		n.terminalDrop(fl)
		return
	}
	fl.attempt++
	n.eng.After(retryDelay, fl.retry)
}

// StarMesh is the paper's 2x2 star-mesh: four routers in a square, each with
// a set of tiles attached in a star. Tiles are assigned to routers round
// robin, matching the balanced placement of the FPGA floorplan.
type StarMesh struct {
	NumTiles int
}

// routerPos is the fixed 2x2 arrangement; Manhattan distance in the square
// gives the router-to-router hop count (adjacent: 1, diagonal: 2).
var routerPos = [4][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}}

// RouterOf assigns tiles to the four routers round robin.
func (s StarMesh) RouterOf(t TileID) int { return int(t) % 4 }

// Hops reports tile->router (1) + router mesh distance + router->tile (1).
func (s StarMesh) Hops(a, b TileID) int {
	if a == b {
		return 1
	}
	ra, rb := s.RouterOf(a), s.RouterOf(b)
	if ra == rb {
		return 2
	}
	pa, pb := routerPos[ra], routerPos[rb]
	dist := abs(pa[0]-pb[0]) + abs(pa[1]-pb[1])
	return 2 + dist
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
