package dtu

import (
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// This file carries the DTU's observability surface: registry-backed
// counter accessors (the former exported counter fields) and the trace
// spans wrapped around the unprivileged command interface.

// Sends reports the number of SEND commands that passed validation.
func (d *DTU) Sends() int64 { return d.m.sends.Value() }

// Replies reports the number of REPLY commands that passed validation.
func (d *DTU) Replies() int64 { return d.m.replies.Value() }

// Reads reports the number of successful READ commands.
func (d *DTU) Reads() int64 { return d.m.reads.Value() }

// Writes reports the number of successful WRITE commands.
func (d *DTU) Writes() int64 { return d.m.writes.Value() }

// NackedDeliveries reports deliveries rejected for NoC-level backpressure
// (full receive buffer or core-request queue overrun).
func (d *DTU) NackedDeliveries() int64 { return d.m.nacked.Value() }

// Delivery status codes recorded in dtu.deliver spans (Arg1). Part of the
// trace format.
const (
	deliverStored      = 0
	deliverNoRecipient = 1
	deliverNacked      = 2
)

// LastFlow reports the flow ID minted for the most recent SEND/REPLY command
// on this DTU (0 when tracing is disabled). The M³x slow path reads it to
// carry the failing command's flow through the controller in-band.
func (d *DTU) LastFlow() uint64 { return d.lastFlow }

// errCode maps a command error to the stable small integer recorded in
// trace spans (0 = success). The codes are part of the trace format.
func errCode(err error) int64 {
	switch err {
	case nil:
		return 0
	case ErrUnknownEp:
		return 1
	case ErrNoCredits:
		return 2
	case ErrNoRecipient:
		return 3
	case ErrTLBMiss:
		return 4
	case ErrNoPerm:
		return 5
	case ErrMsgTooLarge:
		return 6
	case ErrInvalidArgs:
		return 7
	case ErrPageBoundary:
		return 8
	case ErrNoMessage:
		return 9
	case ErrAborted:
		return 10
	case ErrXferTimeout:
		return 11
	default:
		return -1
	}
}

// traceCmd records one finished unprivileged command: the always-on
// duration histogram and, when the stream is enabled, a span on the given
// flow (0 unless the command consumed a traced message).
func (d *DTU) traceCmd(start sim.Time, flow uint64, name trace.SpanName, ep EpID, bytes int, err error) {
	now := d.eng.Now()
	d.m.cmdTime.Observe(int64(now - start))
	d.rec.EmitSpan(flow, 0, name, int64(start), int64(now), int(d.tile),
		trace.CompDTU, trace.PathNone, int64(ep), int64(bytes), errCode(err))
}

// traceTLB records the outcome of the single per-command TLB check as an
// instant span: a child of the command's root span when a SEND/REPLY flow
// is in flight, a flow-0 span otherwise.
func (d *DTU) traceTLB(hit bool, vaddr uint64) {
	if !d.rec.Enabled() {
		return
	}
	h := int64(0)
	if hit {
		h = 1
	}
	now := int64(d.eng.Now())
	d.rec.EmitSpan(d.curFlow, d.curSpan, trace.SpanDTUTLB, now, now, int(d.tile),
		trace.CompDTU, trace.PathNone, h, int64(vaddr), int64(d.curAct))
}
