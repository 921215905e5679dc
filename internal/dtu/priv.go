package dtu

import (
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// This file implements the privileged interface, present only on the vDTU
// and mapped only for TileMux (paper §3.4–§3.8). Calling a privileged
// operation on a non-virtualized DTU panics: it is a model bug, equivalent
// to accessing unmapped MMIO.

func (d *DTU) requirePriv() {
	if !d.virt {
		panic("dtu: privileged interface on non-virtualized DTU")
	}
}

// SwitchAct atomically installs a new current activity (with its saved
// unread-message count) and returns the previous CUR_ACT contents. The
// atomicity guarantees that no message notification interleaves with the
// switch, which is what closes the lost-wakeup window for TileMux's blocking
// decision (paper §3.7).
func (d *DTU) SwitchAct(p *sim.Proc, act ActID, msgs int) (oldAct ActID, oldMsgs int) {
	d.requirePriv()
	d.charge(p, privCycles)
	oldAct, oldMsgs = d.curAct, d.curMsgs
	d.curAct, d.curMsgs = act, msgs
	return oldAct, oldMsgs
}

// InsertTLB installs a translation through the privileged interface after
// TileMux resolved a TLB miss reported by a failing command (paper §3.6).
func (d *DTU) InsertTLB(p *sim.Proc, act ActID, vaddr, paddr uint64, perm Perm) {
	d.requirePriv()
	d.charge(p, privCycles)
	if vAct, vAddr, evicted := d.tlb.Insert(act, vaddr, paddr, perm); evicted {
		now := int64(d.eng.Now())
		d.rec.EmitSpan(0, 0, trace.SpanDTUTLBEvict, now, now, int(d.tile),
			trace.CompDTU, trace.PathNone, int64(vAct), int64(vAddr), 0)
	}
}

// InvalidateTLBPage drops one translation (page-table update).
func (d *DTU) InvalidateTLBPage(p *sim.Proc, act ActID, vaddr uint64) {
	d.requirePriv()
	d.charge(p, privCycles)
	d.tlb.InvalidatePage(act, vaddr)
}

// InvalidateTLBAct drops all translations of one activity.
func (d *DTU) InvalidateTLBAct(p *sim.Proc, act ActID) {
	d.requirePriv()
	d.charge(p, privCycles)
	d.tlb.InvalidateAct(act)
}

// FetchCoreReq reads the head of the core-request queue: the activity that
// received a message while not running, plus the trace flow of the message
// that raised the request (0 when tracing is disabled). ok is false if the
// queue is empty. The request stays queued until AckCoreReq.
func (d *DTU) FetchCoreReq(p *sim.Proc) (act ActID, flow uint64, ok bool) {
	d.requirePriv()
	d.charge(p, privCycles)
	if len(d.coreReqs) == 0 {
		return ActInvalid, 0, false
	}
	return d.coreReqs[0].act, d.coreReqs[0].flow, true
}

// AckCoreReq pops the head core request and closes its dtu.core_req span.
// If more requests are queued, the vDTU injects another interrupt (paper
// §3.8).
func (d *DTU) AckCoreReq(p *sim.Proc) {
	d.requirePriv()
	d.charge(p, privCycles)
	if len(d.coreReqs) == 0 {
		return
	}
	cr := d.coreReqs[0]
	d.coreReqs = d.coreReqs[1:]
	d.m.coreReqDepth.Set(int64(len(d.coreReqs)))
	d.rec.EndSpanArgs(cr.span, int64(d.eng.Now()), trace.PathNone,
		int64(cr.act), int64(len(d.coreReqs)))
	if len(d.coreReqs) > 0 {
		d.injectIrq()
	}
}

// PendingCoreReqs reports the queue depth, for tests.
func (d *DTU) PendingCoreReqs() int { return len(d.coreReqs) }
