package dtu

import (
	"errors"
	"slices"

	"m3v/internal/noc"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// This file implements the unprivileged command interface: the commands
// activities issue through MMIO (paper §4.1, "Core-vDTU Interface"). All
// commands run in process context and block the calling process for the
// modelled duration.

// SendArgs describes a SEND command.
type SendArgs struct {
	Ep   EpID   // send endpoint
	Data []byte // payload (the modelled buffer contents)
	// Vaddr is the virtual address of the payload buffer, checked against
	// the vDTU TLB.
	Vaddr uint64
	// ReplyEp is the receive endpoint for the reply, or -1 for one-way
	// messages.
	ReplyEp EpID
	// ReplyLabel is carried as the Label of the reply message.
	ReplyLabel uint64
}

// Send executes the SEND command: it consumes a credit, transfers the
// message to the target receive endpoint, and completes when the remote DTU
// acknowledges storage (or reports an error). ErrNoRecipient restores the
// credit, since no message is in flight afterwards.
//
//m3v:simctx
func (d *DTU) Send(p *sim.Proc, a SendArgs) error {
	start := d.eng.Now()
	// Mint the message's flow ID and open the root span before the inner
	// command runs, so nested emissions (TLB check) can parent to it. The
	// core token serializes commands per tile, so the cur* registers cannot
	// be clobbered by a concurrent command.
	flow := d.rec.MintFlow()
	d.curFlow = flow
	d.curSpan = d.rec.BeginSpan(flow, 0, trace.SpanDTUSend, int64(start), int(d.tile), trace.CompDTU)
	err := d.send(p, a, flow)
	for attempt := 0; d.retryTransient(p, err, flow, attempt); attempt++ {
		err = d.send(p, a, flow)
	}
	d.m.cmdTime.Observe(int64(d.eng.Now() - start))
	d.rec.EndSpanArgs(d.curSpan, int64(d.eng.Now()), trace.PathNone, int64(a.Ep), errCode(err))
	d.curFlow, d.curSpan = 0, 0
	d.lastFlow = flow
	return err
}

func (d *DTU) send(p *sim.Proc, a SendArgs, flow uint64) error {
	d.charge(p, SendCycles+d.mediation)
	if d.inj.FailCmd(flow, int(d.tile), 0) {
		return ErrXferTimeout
	}
	e, err := d.epFor(a.Ep, EpSend)
	if err != nil {
		return err
	}
	if len(a.Data) > e.MsgSize {
		return ErrMsgTooLarge
	}
	if e.Credits <= 0 {
		return ErrNoCredits
	}
	if err := d.translate(a.Vaddr, len(a.Data), PermR); err != nil {
		return err
	}
	e.Credits--
	crdEp := a.Ep
	if e.Reply {
		// Single-shot reply endpoints do not get credits back.
		crdEp = -1
	}
	msg := Message{
		Label:      e.Label,
		SndTile:    d.tile,
		SndAct:     d.curAct,
		ReplyEp:    a.ReplyEp,
		CrdEp:      crdEp,
		ReplyLabel: a.ReplyLabel,
		Flow:       flow,
		Data:       append([]byte(nil), a.Data...),
	}
	d.m.sends.Inc()
	err = d.issueMsg(p, e.TgtTile, e.TgtEp, msg, -1)
	if err != nil {
		e.Credits++ // command failed; nothing in flight
	}
	// Data leaves through the cache bus.
	p.Sleep(xferTime(len(a.Data)))
	return err
}

// Reply executes the REPLY command on a fetched message: it sends data to
// the reply endpoint recorded in the slot, frees the slot, and piggybacks
// the credit return for the original request.
//
//m3v:simctx
func (d *DTU) Reply(p *sim.Proc, ep EpID, slot int, data []byte, vaddr uint64) error {
	start := d.eng.Now()
	flow := d.rec.MintFlow()
	d.curFlow = flow
	d.curSpan = d.rec.BeginSpan(flow, 0, trace.SpanDTUReply, int64(start), int(d.tile), trace.CompDTU)
	err := d.reply(p, ep, slot, data, vaddr, flow)
	for attempt := 0; d.retryTransient(p, err, flow, attempt); attempt++ {
		err = d.reply(p, ep, slot, data, vaddr, flow)
	}
	d.m.cmdTime.Observe(int64(d.eng.Now() - start))
	d.rec.EndSpanArgs(d.curSpan, int64(d.eng.Now()), trace.PathNone, int64(ep), errCode(err))
	d.curFlow, d.curSpan = 0, 0
	d.lastFlow = flow
	return err
}

func (d *DTU) reply(p *sim.Proc, ep EpID, slot int, data []byte, vaddr uint64, flow uint64) error {
	d.charge(p, replyCycles+d.mediation)
	if d.inj.FailCmd(flow, int(d.tile), 1) {
		return ErrXferTimeout
	}
	e, err := d.epFor(ep, EpReceive)
	if err != nil {
		return err
	}
	if slot < 0 || slot >= e.Slots || e.occupied&(1<<uint(slot)) == 0 {
		return ErrInvalidArgs
	}
	req := e.slots[slot].msg
	if req.ReplyEp < 0 {
		return ErrInvalidArgs // sender did not ask for a reply
	}
	if len(data) > e.SlotSize {
		return ErrMsgTooLarge
	}
	if err := d.translate(vaddr, len(data), PermR); err != nil {
		return err
	}
	// Free the slot before the transfer: the hardware retires the slot as
	// part of issuing the reply.
	e.occupied &^= 1 << uint(slot)
	e.unread &^= 1 << uint(slot)
	reply := Message{
		Label:   req.ReplyLabel,
		SndTile: d.tile,
		SndAct:  d.curAct,
		ReplyEp: -1,
		CrdEp:   -1,
		Flow:    flow,
		Data:    append([]byte(nil), data...),
	}
	d.m.replies.Inc()
	err = d.issueMsg(p, req.SndTile, req.ReplyEp, reply, req.CrdEp)
	if errors.Is(err, ErrXferTimeout) {
		// The reply never reached the requester: re-occupy the slot so the
		// retry (or the caller, if the budget runs out) can reissue it.
		e.occupied |= 1 << uint(slot)
	}
	p.Sleep(xferTime(len(data)))
	return err
}

// SendRaw transmits a fully specified message to an arbitrary receive
// endpoint, bypassing send-endpoint checks. Only the M³x controller uses it:
// it is the trusted entity that delivers slow-path messages on behalf of
// senders (paper §2.2).
func (d *DTU) SendRaw(p *sim.Proc, tile noc.TileID, ep EpID, msg Message, crdRet EpID) error {
	if d.virt {
		panic("dtu: SendRaw is a controller-DTU operation")
	}
	err := d.sendRaw(p, tile, ep, msg, crdRet)
	for attempt := 0; d.retryTransient(p, err, msg.Flow, attempt); attempt++ {
		err = d.sendRaw(p, tile, ep, msg, crdRet)
	}
	return err
}

func (d *DTU) sendRaw(p *sim.Proc, tile noc.TileID, ep EpID, msg Message, crdRet EpID) error {
	if d.inj.FailCmd(msg.Flow, int(d.tile), 0) {
		return ErrXferTimeout
	}
	return d.issueMsg(p, tile, ep, msg, crdRet)
}

// retryTransient reports whether a command wrapper should reissue after a
// transient failure. Only ErrXferTimeout qualifies, and only while the
// injector's retry budget lasts; the backoff (exponential, sim-time) is
// slept here and recorded as a fault.retry span on the command's flow.
func (d *DTU) retryTransient(p *sim.Proc, err error, flow uint64, attempt int) bool {
	if !errors.Is(err, ErrXferTimeout) {
		return false
	}
	backoff, ok := d.inj.CmdRetry(attempt)
	if !ok {
		return false
	}
	t0 := int64(d.eng.Now())
	p.Sleep(backoff)
	d.inj.EmitRetry(flow, t0, int64(d.eng.Now()), int(d.tile), attempt)
	return true
}

// issueMsg transmits a message to receive endpoint ep on tile dst and blocks
// until the destination DTU acknowledges it. crdRet, if >= 0, is a credit
// return piggybacked for a send endpoint at the destination.
//
//m3v:simctx
func (d *DTU) issueMsg(p *sim.Proc, dst noc.TileID, ep EpID, msg Message, crdRet EpID) error {
	c := d.acquireCmd(opMsg, dst, headerBytes+len(msg.Data))
	c.ep, c.msg, c.crdRet = ep, msg, crdRet
	err := c.await(p)
	d.releaseCmd(c)
	return err
}

// Fetch executes FETCH_MSG: it returns the oldest unread message of the
// receive endpoint without freeing its slot. The slot index must be passed
// to Reply or Ack later.
//
//m3v:simctx
func (d *DTU) Fetch(p *sim.Proc, ep EpID) (int, *Message, error) {
	start := d.eng.Now()
	slot, m, err := d.fetch(p, ep)
	// A consumed message is its flow's receive-side terminus. The span is a
	// root of its own: the sender's command span may long be closed by now.
	var flow uint64
	bytes := 0
	if m != nil {
		flow, bytes = m.Flow, len(m.Data)
	}
	d.traceCmd(start, flow, trace.SpanDTUFetch, ep, bytes, err)
	return slot, m, err
}

func (d *DTU) fetch(p *sim.Proc, ep EpID) (int, *Message, error) {
	d.charge(p, fetchCycles+d.mediation)
	e, err := d.epFor(ep, EpReceive)
	if err != nil {
		return 0, nil, err
	}
	if e.unread == 0 {
		return 0, nil, ErrNoMessage
	}
	slot := 0
	for e.unread&(1<<uint(slot)) == 0 {
		slot++
	}
	e.unread &^= 1 << uint(slot)
	if d.curMsgs > 0 {
		d.curMsgs--
	}
	d.m.fetches.Inc()
	m := e.slots[slot].msg
	p.Sleep(xferTime(len(m.Data))) // message moves over the cache bus
	return slot, &m, nil
}

// Ack executes ACK_MSG: it frees a fetched slot and returns the credit to
// the sender (for messages that are not answered with Reply).
func (d *DTU) Ack(p *sim.Proc, ep EpID, slot int) error {
	start := d.eng.Now()
	err := d.ack(p, ep, slot)
	d.traceCmd(start, 0, trace.SpanDTUAck, ep, 0, err)
	return err
}

func (d *DTU) ack(p *sim.Proc, ep EpID, slot int) error {
	d.charge(p, ackCycles+d.mediation)
	e, err := d.epFor(ep, EpReceive)
	if err != nil {
		return err
	}
	if slot < 0 || slot >= e.Slots || e.occupied&(1<<uint(slot)) == 0 {
		return ErrInvalidArgs
	}
	msg := e.slots[slot].msg
	bit := uint64(1) << uint(slot)
	if e.unread&bit != 0 && d.curMsgs > 0 {
		d.curMsgs-- // acked without fetching
	}
	e.occupied &^= bit
	e.unread &^= bit
	d.m.acks.Inc()
	if msg.CrdEp >= 0 {
		d.eng.After(procTime, func() {
			d.net.Send(d.net.NewPacket(d.tile, msg.SndTile, headerBytes,
				creditPacket{DstEp: msg.CrdEp}))
		})
	}
	return nil
}

// ReadInto executes the READ command: a DMA read of len(dst) bytes from
// offset off of the memory endpoint's region into dst. The local buffer
// (vaddr) and the region window are both limited to a single page per
// command. dst is written only if the command succeeds. A request or
// response the NoC drops for good fails the command with ErrXferTimeout.
func (d *DTU) ReadInto(p *sim.Proc, ep EpID, off uint64, dst []byte, vaddr uint64) error {
	start := d.eng.Now()
	err := d.read(p, ep, off, dst, vaddr)
	d.traceCmd(start, 0, trace.SpanDTURead, ep, len(dst), err)
	return err
}

// Read is ReadInto into a fresh buffer of n >= 0 bytes.
func (d *DTU) Read(p *sim.Proc, ep EpID, off uint64, n int, vaddr uint64) ([]byte, error) {
	buf := make([]byte, n)
	if err := d.ReadInto(p, ep, off, buf, vaddr); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d *DTU) read(p *sim.Proc, ep EpID, off uint64, dst []byte, vaddr uint64) error {
	d.charge(p, xferCycles+d.mediation)
	e, err := d.epFor(ep, EpMemory)
	if err != nil {
		return err
	}
	n := len(dst)
	if n > PageSize {
		return ErrInvalidArgs
	}
	if !e.MemPerm.Has(PermR) {
		return ErrNoPerm
	}
	if off > e.MemSize || uint64(n) > e.MemSize-off {
		return ErrNoPerm
	}
	if err := d.translate(vaddr, n, PermW); err != nil {
		return err
	}
	c := d.acquireCmd(opRead, e.MemTile, headerBytes)
	c.off, c.buf = e.MemBase+off, slices.Grow(c.buf, n)[:n]
	err = c.await(p)
	if err == nil {
		copy(dst, c.buf)
	}
	d.releaseCmd(c)
	if err != nil {
		return err
	}
	d.m.reads.Inc()
	p.Sleep(xferTime(n))
	return nil
}

// Write executes the WRITE command: a DMA write into the memory endpoint's
// region. A terminal NoC drop fails it with ErrXferTimeout, as for Read.
func (d *DTU) Write(p *sim.Proc, ep EpID, off uint64, data []byte, vaddr uint64) error {
	start := d.eng.Now()
	err := d.write(p, ep, off, data, vaddr)
	d.traceCmd(start, 0, trace.SpanDTUWrite, ep, len(data), err)
	return err
}

func (d *DTU) write(p *sim.Proc, ep EpID, off uint64, data []byte, vaddr uint64) error {
	d.charge(p, xferCycles+d.mediation)
	e, err := d.epFor(ep, EpMemory)
	if err != nil {
		return err
	}
	if len(data) > PageSize {
		return ErrInvalidArgs
	}
	if !e.MemPerm.Has(PermW) {
		return ErrNoPerm
	}
	if off > e.MemSize || uint64(len(data)) > e.MemSize-off {
		return ErrNoPerm
	}
	if err := d.translate(vaddr, len(data), PermR); err != nil {
		return err
	}
	c := d.acquireCmd(opWrite, e.MemTile, headerBytes+len(data))
	// The DTU reads the buffer as it issues the command.
	c.off, c.buf = e.MemBase+off, append(c.buf, data...)
	err = c.await(p)
	d.releaseCmd(c)
	if err != nil {
		return err
	}
	d.m.writes.Inc()
	p.Sleep(xferTime(len(data)))
	return nil
}

// HasUnread reports whether the endpoint currently holds unread messages.
// It models the cheap MMIO poll of the receive endpoint's unread register.
func (d *DTU) HasUnread(ep EpID) bool {
	if ep < 0 || int(ep) >= NumEPs {
		return false
	}
	e := &d.eps[ep]
	return e.Kind == EpReceive && e.unread != 0
}
