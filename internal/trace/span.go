package trace

import (
	"fmt"
	"hash/fnv"
	"slices"
)

// This file implements spans, the recorder's one record type:
// begin/end-stamped intervals (instants when begin equals end). Every
// message minted at a sending endpoint receives a deterministic flow ID (a
// per-recorder sequence number, so two runs of a deterministic model
// produce identical IDs); the components it traverses emit spans tagged
// with that flow, and the analysis layer (flows.go, cmd/m3vtrace)
// reassembles them into per-message latency breakdowns and critical-path
// reports.
//
// Flow 0 belongs to no message. MintFlow returns it while the stream is
// disabled; on an enabled recorder, spans of flow 0 record what happens
// outside a traced message — context switches, interrupts, DTU memory
// commands, packets of untraced messages. They are part of the stream and
// its hash, but join no flow: the flows file and the Chrome flow arrows
// skip them.
//
// Every span helper is nil-recorder-safe and costs only the enabled-check
// when tracing is off, so disabled runs never touch the span buffer.

// SpanName identifies a span type. Names follow the component.noun
// convention of the metrics registry; the spanname analyzer enforces it
// on the spanNames table below.
type SpanName uint8

// Span names, in stable order (part of the trace format).
const (
	// SpanNone is the unnamed sentinel; no span carries it.
	SpanNone SpanName = iota
	// SpanDTUSend covers a SEND command at the sending DTU, from command
	// issue to the remote acknowledgement.
	// Arg0 = send endpoint, Arg1 = error code (0 = success).
	SpanDTUSend
	// SpanDTUReply covers a REPLY command at the replying DTU.
	// Arg0 = receive endpoint, Arg1 = error code.
	SpanDTUReply
	// SpanDTUTLB is the command's TLB check (instant).
	// Arg0 = 1 hit / 0 miss, Arg1 = virtual address, Arg2 = current
	// activity id.
	SpanDTUTLB
	// SpanDTUDeliver is the receiving DTU storing (or rejecting) the
	// message (instant). Path is PathFast when the message was stored
	// directly. Arg0 = destination endpoint, Arg1 = delivery status
	// (0 = stored, 1 = no recipient, 2 = NACKed).
	SpanDTUDeliver
	// SpanDTUCoreReq covers a core request from raise (message stored for
	// a non-current activity) to TileMux's acknowledgement.
	// Arg0 = target activity id, Arg1 = queue depth after the drain.
	SpanDTUCoreReq
	// SpanDTUFetch covers a FETCH_MSG command; on success it consumed
	// the message of its flow at the receiver, a failed fetch is flow 0.
	// Arg0 = receive endpoint, Arg1 = bytes, Arg2 = error code.
	SpanDTUFetch
	// SpanNoCXfer covers one NoC delivery attempt from transmit to
	// delivery, at the destination tile. Arg0 = attempt number (0-based),
	// Arg1 = 1 if delivered, 0 if NACKed.
	SpanNoCXfer
	// SpanNoCQueue is the router-contention share of a transfer (child of
	// SpanNoCXfer). Arg0 = ingress router.
	SpanNoCQueue
	// SpanMuxWakeup covers the context switch that brought the message's
	// blocked recipient back onto the core.
	// Arg0 = previous activity id, Arg1 = woken activity id.
	SpanMuxWakeup
	// SpanKernSyscall covers the controller handling the syscall message
	// of this flow. Arg0 = protocol op, Arg1 = calling activity id.
	SpanKernSyscall
	// SpanKernForward covers the M³x controller forwarding a slow-path
	// message (paper §2.2); it marks the flow PathSlow.
	// Arg0 = forward mode (0 = request leg, 1 = reply leg),
	// Arg1 = 1 if delivered into saved state, 0 if sent directly.
	SpanKernForward
	// SpanKernSwitch covers the remote context switch the M³x controller
	// performed to schedule the flow's recipient.
	// Arg0 = tile, Arg1 = target activity (global id).
	SpanKernSwitch
	// SpanFaultDrop covers an injected NoC packet drop and the retransmit
	// backoff it forced: [drop, retransmit). Arg0 = attempt number,
	// Arg1 = 1 if the drop was terminal (retry budget exhausted).
	SpanFaultDrop
	// SpanFaultDelay is an injected NoC latency penalty; the interval is
	// the extra wire time added. Arg0 = extra picoseconds.
	SpanFaultDelay
	// SpanFaultDup marks an injected duplicate NoC packet (instant at the
	// transmit edge). The ghost copy is filtered at the destination.
	SpanFaultDup
	// SpanFaultCmdFail marks an injected DTU command failure (instant).
	// Arg0 = 0 for send, 1 for reply.
	SpanFaultCmdFail
	// SpanFaultRetry covers one retry backoff sleep a DTU command wrapper
	// took after a transient failure. Arg0 = attempt number.
	SpanFaultRetry
	// SpanFaultStall covers an injected TileMux wakeup stall: the interval
	// by which the scheduler poke was deferred.
	SpanFaultStall
	// SpanMuxSwitch covers a TileMux context switch (flow 0).
	// Arg0 = previous activity id, Arg1 = next activity id,
	// Arg2 = SwitchReason.
	SpanMuxSwitch
	// SpanMuxIrq is a TileMux core-request/kernel-message interrupt
	// (instant, flow 0). Arg0 = pending core requests at entry.
	SpanMuxIrq
	// SpanMuxPageFault is a major fault forwarded to the pager (instant,
	// flow 0). Arg0 = activity id, Arg1 = virtual address, Arg2 = perm.
	SpanMuxPageFault
	// SpanMuxActExit is an activity's exit call (instant, flow 0).
	// Arg0 = activity id, Arg1 = exit code.
	SpanMuxActExit
	// SpanDTUTLBEvict is a FIFO eviction on TLB insert (instant, flow 0).
	// Arg0 = evicted activity id, Arg1 = evicted virtual page address.
	SpanDTUTLBEvict
	// SpanDTUAck, SpanDTURead and SpanDTUWrite cover the ACK_MSG, READ
	// and WRITE commands (flow 0). Arg0 = endpoint, Arg1 = bytes,
	// Arg2 = error code.
	SpanDTUAck
	SpanDTURead
	SpanDTUWrite
	// SpanKernRotate covers a remote context switch the M³x controller
	// performed to rotate a multiplexed tile at a time-slice tick (flow
	// 0); switches that schedule a message's recipient are
	// SpanKernSwitch. Arg0 = tile, Arg1 = target activity (global id).
	SpanKernRotate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	SpanNone:         "",
	SpanDTUSend:      "dtu.send",
	SpanDTUReply:     "dtu.reply",
	SpanDTUTLB:       "dtu.tlb",
	SpanDTUDeliver:   "dtu.deliver",
	SpanDTUCoreReq:   "dtu.core_req",
	SpanDTUFetch:     "dtu.fetch",
	SpanNoCXfer:      "noc.xfer",
	SpanNoCQueue:     "noc.queue",
	SpanMuxWakeup:    "tilemux.wakeup",
	SpanKernSyscall:  "kernel.syscall",
	SpanKernForward:  "kernel.forward",
	SpanKernSwitch:   "kernel.remote_switch",
	SpanFaultDrop:    "fault.drop",
	SpanFaultDelay:   "fault.delay",
	SpanFaultDup:     "fault.dup",
	SpanFaultCmdFail: "fault.cmd_fail",
	SpanFaultRetry:   "fault.retry",
	SpanFaultStall:   "fault.stall",
	SpanMuxSwitch:    "tilemux.switch",
	SpanMuxIrq:       "tilemux.irq",
	SpanMuxPageFault: "tilemux.page_fault",
	SpanMuxActExit:   "tilemux.act_exit",
	SpanDTUTLBEvict:  "dtu.tlb_evict",
	SpanDTUAck:       "dtu.ack",
	SpanDTURead:      "dtu.read",
	SpanDTUWrite:     "dtu.write",
	SpanKernRotate:   "kernel.rotate",
}

// String returns the span's component.noun name.
func (s SpanName) String() string {
	if int(s) < len(spanNames) {
		return spanNames[s]
	}
	return "?"
}

// UnmarshalText parses a name as String writes it; an unknown name, or
// SpanNone's empty one, is an error.
func (s *SpanName) UnmarshalText(b []byte) error {
	i := slices.Index(spanNames[1:], string(b))
	if i < 0 {
		return fmt.Errorf("unknown span name %q", b)
	}
	*s = SpanName(i + 1)
	return nil
}

// Path is a span's fast/slow-path attribution. A flow's verdict is the
// strongest mark of any of its spans: PathSlow wins over PathFast, because
// the M³x controller's final delivery of a forwarded message re-uses the
// regular (fast) store at the receiving DTU.
type Path uint8

// Path attributions.
const (
	// PathNone: the span does not determine the flow's path.
	PathNone Path = iota
	// PathFast: a direct DTU delivery (M³v always; M³x when the recipient
	// is current).
	PathFast
	// PathSlow: the message detoured through the M³x controller.
	PathSlow
	numPaths
)

var pathNames = [numPaths]string{PathNone: "", PathFast: "fast", PathSlow: "slow"}

// String returns "fast", "slow", or "" for PathNone.
func (p Path) String() string {
	if int(p) < len(pathNames) {
		return pathNames[p]
	}
	return "?"
}

// UnmarshalText parses a path as String writes it; an unknown one is an
// error.
func (p *Path) UnmarshalText(b []byte) error {
	i := slices.Index(pathNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("unknown path %q", b)
	}
	*p = Path(i)
	return nil
}

// SwitchReason explains why TileMux performed a context switch (Arg2 of
// a tilemux.switch span).
type SwitchReason uint8

// Context-switch reasons.
const (
	// SwitchDispatch: the idle core picked up a ready activity.
	SwitchDispatch SwitchReason = iota
	// SwitchPreempt: the time slice expired with other activities ready.
	SwitchPreempt
	// SwitchBlock: the activity blocked in WaitForMsg.
	SwitchBlock
	// SwitchYield: the activity yielded voluntarily.
	SwitchYield
	// SwitchExit: the activity exited.
	SwitchExit
	// SwitchFault: the activity blocked on a page fault.
	SwitchFault
)

// SpanRef refers to a recorded span (its 1-based position in the span
// stream). The zero ref is "no span": ending or parenting on it is a
// no-op, so refs can be threaded unconditionally through disabled runs.
// Refs are invalidated by Reset.
type SpanRef int32

// Span is one recorded interval. All fields are plain scalars so a span
// stream can be hashed and compared bit-for-bit across runs.
type Span struct {
	// Flow is the message's flow ID, or 0 for a span of no message.
	Flow uint64 `json:"flow"`
	// Parent refers to the enclosing span of the same flow, or 0 for a
	// root. Flows form forests: receive-side spans (core_req, wakeup,
	// fetch) are roots of their own, since they outlive the sender's
	// command.
	Parent SpanRef `json:"parent,omitempty"`
	// At/End are begin and end timestamps in picoseconds. End is -1 while
	// the span is open.
	At  int64 `json:"at"`
	End int64 `json:"end"`
	// Tile is the tile the span is attributed to.
	Tile int32 `json:"tile"`
	// Comp is the emitting component.
	Comp Component `json:"comp"`
	// Name selects the interpretation of the Arg fields.
	Name SpanName `json:"name"`
	// Path is the span's fast/slow mark (PathNone for most spans).
	Path Path `json:"path,omitempty"`
	// Arg0..Arg2 are name-specific payload values; the flows file leaves
	// out Arg2.
	Arg0 int64 `json:"arg0,omitempty"`
	Arg1 int64 `json:"arg1,omitempty"`
	Arg2 int64 `json:"-"`
}

// Dur reports the span's duration, or 0 while it is open.
func (s *Span) Dur() int64 {
	if s.End < s.At {
		return 0
	}
	return s.End - s.At
}

// MintFlow returns the next deterministic flow ID, or 0 (the untraced
// flow) when the recorder is nil or disabled. IDs are a per-recorder
// engine-ordered sequence, never derived from pointers or map order.
//
//m3v:noalloc
func (r *Recorder) MintFlow() uint64 {
	if r == nil || !r.enabled {
		return 0
	}
	r.nextFlow++
	return r.nextFlow
}

// BeginSpan opens a span and returns its ref, or 0 (a no-op ref) when the
// recorder is nil or disabled.
//
//m3v:noalloc
func (r *Recorder) BeginSpan(flow uint64, parent SpanRef, name SpanName, at int64, tile int, comp Component) SpanRef {
	if r == nil || !r.enabled {
		return 0
	}
	return r.add(Span{
		Flow: flow, Parent: parent, Name: name,
		At: at, End: -1, Tile: int32(tile), Comp: comp,
	})
}

// EndSpan closes a span. A zero or stale ref is ignored, so callers may
// thread refs through unconditionally.
//
//m3v:noalloc
func (r *Recorder) EndSpan(ref SpanRef, end int64) {
	if r == nil || ref <= 0 || int(ref) > len(r.spans) {
		return
	}
	r.spans[ref-1].End = end
}

// EndSpanArgs closes a span and sets its path mark and first two args in
// one step.
//
//m3v:noalloc
func (r *Recorder) EndSpanArgs(ref SpanRef, end int64, path Path, arg0, arg1 int64) {
	if r == nil || ref <= 0 || int(ref) > len(r.spans) {
		return
	}
	s := &r.spans[ref-1]
	s.End, s.Path, s.Arg0, s.Arg1 = end, path, arg0, arg1
}

// EmitSpan records a complete span (begin and end known at emit time).
//
//m3v:noalloc
func (r *Recorder) EmitSpan(flow uint64, parent SpanRef, name SpanName, at, end int64, tile int, comp Component, path Path, arg0, arg1, arg2 int64) {
	if r == nil || !r.enabled {
		return
	}
	r.add(Span{
		Flow: flow, Parent: parent, Name: name,
		At: at, End: end, Tile: int32(tile), Comp: comp,
		Path: path, Arg0: arg0, Arg1: arg1, Arg2: arg2,
	})
}

// add appends s to the stream and returns its ref. A full buffer doubles:
// append grows a large slice by about a quarter at a time, which copies a
// stream of a million spans several times over.
//
//m3v:noalloc
func (r *Recorder) add(s Span) SpanRef {
	n := len(r.spans)
	if n == cap(r.spans) {
		//m3vlint:ignore noalloc enabled-path span buffer doubles when full; the disabled paths never reach add
		grown := make([]Span, n, 2*n+1024)
		copy(grown, r.spans)
		r.spans = grown
	}
	r.spans = r.spans[:n+1]
	r.spans[n] = s
	return SpanRef(n + 1)
}

// Spans returns the recorded span stream. The slice is owned by the
// recorder; callers must not modify it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// Hash returns a 64-bit FNV-1a digest over the serialized span stream. Two
// runs of a deterministic model must produce identical hashes.
func (r *Recorder) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range r.Spans() {
		s := &r.spans[i]
		put(int64(s.Flow))
		put(int64(s.Parent))
		put(s.At)
		put(s.End)
		put(int64(s.Tile)<<24 | int64(s.Comp)<<16 | int64(s.Name)<<8 | int64(s.Path))
		put(s.Arg0)
		put(s.Arg1)
		put(s.Arg2)
	}
	return h.Sum64()
}

// CountSpans reports how many recorded spans have the given name.
func (r *Recorder) CountSpans(n SpanName) int64 {
	var c int64
	for i := range r.Spans() {
		if r.spans[i].Name == n {
			c++
		}
	}
	return c
}

// CountFlowSpans reports how many recorded spans belong to a flow (the
// spans WriteFlows writes).
func (r *Recorder) CountFlowSpans() int {
	n := 0
	for i := range r.Spans() {
		if r.spans[i].Flow != 0 {
			n++
		}
	}
	return n
}
