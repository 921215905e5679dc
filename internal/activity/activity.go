// Package activity provides the user-level runtime that programs on M³v
// tiles are written against: gate-based communication with automatic
// TLB-miss and credit handling, system-call stubs for the controller, and
// compute-time accounting.
//
// An Activity is bound to an execution context (Exec) that arbitrates the
// tile's core: TileMux on M³v, RCTMux on the M³x baseline.
package activity

import (
	"errors"
	"fmt"

	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
)

// Exec is the tile-side execution context of an activity. tilemux.Act
// implements it for M³v; the M³x baseline provides its own.
type Exec interface {
	// BeginOp/EndOp bracket every core-consuming operation.
	BeginOp()
	EndOp()
	// Compute charges core cycles; ComputeTime charges a duration.
	Compute(cycles int64)
	ComputeTime(d sim.Time)
	// WaitForMsg blocks until the receive gate rg holds an unread message;
	// rg < 0 waits for any unread message or external event instead.
	WaitForMsg(rg dtu.EpID)
	// Yield gives up the core voluntarily.
	Yield()
	// Exit reports program termination.
	Exit(code int32)
	// FixTranslation resolves a TLB miss for the given address.
	FixTranslation(vaddr uint64, perm dtu.Perm) error
	// Proc is the activity's simulation process.
	Proc() *sim.Proc
}

// Program is the code of an activity.
type Program func(a *Activity)

// ChildRef describes a created child activity, as returned by the
// CreateActivity system call.
type ChildRef struct {
	ActSel   cap.Sel // activity capability in the parent's table
	ID       uint32  // global activity id
	Tile     noc.TileID
	SysSgate dtu.EpID
	SysRgate dtu.EpID
}

// LocalID reports the tile-local activity id of the child.
func (r ChildRef) LocalID() dtu.ActID { return dtu.ActID(r.ID) }

// Loader starts child programs; the platform implements it (it knows the
// tile-to-multiplexer mapping).
type Loader interface {
	Load(ref ChildRef, name string, prog Program)
}

// Activity is the user-level runtime handle of one activity.
type Activity struct {
	Name  string
	ID    uint32
	Local dtu.ActID
	Tile  noc.TileID
	D     *dtu.DTU
	X     Exec

	// Standard endpoints configured by the controller at creation.
	SysSgate dtu.EpID
	SysRgate dtu.EpID

	// Loader starts children (nil for leaf activities).
	Loader Loader

	// Env carries model-level parameters from the spawner (workload
	// configuration, capability selectors handed down, result channels).
	Env map[string]interface{}

	heapNext uint64
	exited   bool

	// w holds the request Msg builds, fw the slow-path Forward that may
	// carry it, resp the reply of the last Call and r the reader of the
	// last Syscall. All four are reused, so a message round trip of the
	// activity allocates nothing.
	w, fw proto.Writer
	resp  []byte
	r     proto.Reader
}

// Msg starts a request in the activity's writer and returns it. The bytes
// stay valid until the next Msg; a send copies them as it starts.
func (a *Activity) Msg(op proto.Op) *proto.Writer { return a.w.Reset(op) }

// Proc returns the activity's simulation process.
func (a *Activity) Proc() *sim.Proc { return a.X.Proc() }

// Compute charges n core cycles of computation.
func (a *Activity) Compute(n int64) { a.X.Compute(n) }

// ComputeTime charges a duration of computation.
func (a *Activity) ComputeTime(d sim.Time) { a.X.ComputeTime(d) }

// Yield gives up the core.
func (a *Activity) Yield() { a.X.Yield() }

// Now reports the current simulated time.
func (a *Activity) Now() sim.Time { return a.Proc().Now() }

// Exit terminates the activity. Programs that return normally are exited by
// the loader; calling Exit twice is a no-op.
func (a *Activity) Exit(code int32) {
	if a.exited {
		return
	}
	a.exited = true
	a.X.Exit(code)
}

// Exited reports whether Exit ran.
func (a *Activity) Exited() bool { return a.exited }

// Alloc reserves n bytes of virtual address space (page-granular) for a
// modelled buffer and returns its virtual address. With a pager configured,
// first use through the vDTU faults the pages in.
func (a *Activity) Alloc(n int) uint64 {
	if a.heapNext == 0 {
		a.heapNext = 0x1000_0000
	}
	v := a.heapNext
	pages := uint64((n + dtu.PageSize - 1) / dtu.PageSize)
	if pages == 0 {
		pages = 1
	}
	a.heapNext += pages * dtu.PageSize
	return v
}

// Send transmits data on a send gate, transparently resolving TLB misses,
// waiting for credits, and falling back to the slow path on M³x.
func (a *Activity) Send(ep dtu.EpID, data []byte, vaddr uint64, replyEp dtu.EpID, replyLabel uint64) error {
	return a.SendBounded(ep, data, vaddr, replyEp, replyLabel, 0)
}

// SendBounded is Send with a bounded number of credit-wait retries
// (0 = unbounded). Datagram-style senders use it to drop instead of
// blocking when the receiver is saturated.
func (a *Activity) SendBounded(ep dtu.EpID, data []byte, vaddr uint64, replyEp dtu.EpID, replyLabel uint64, maxCreditWaits int) error {
	args := dtu.SendArgs{Ep: ep, Data: data, Vaddr: vaddr, ReplyEp: replyEp, ReplyLabel: replyLabel}
	creditWaits := 0
	for {
		a.X.BeginOp()
		err := a.D.Send(a.Proc(), args)
		a.X.EndOp()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, dtu.ErrTLBMiss):
			if ferr := a.X.FixTranslation(vaddr, dtu.PermR); ferr != nil {
				return ferr
			}
		case errors.Is(err, dtu.ErrNoCredits):
			creditWaits++
			if maxCreditWaits > 0 && creditWaits > maxCreditWaits {
				return err
			}
			// Wait for the receiver to drain; credits return asynchronously.
			a.X.Yield()
			a.X.BeginOp()
			a.Proc().Sleep(sim.Microsecond)
			a.X.EndOp()
		case errors.Is(err, dtu.ErrNoRecipient) && !a.D.Virtualized():
			// A plain DTU (M³x) rejects messages for a switched-out
			// recipient: forward through the controller. On the vDTU the
			// error means there is no receive endpoint.
			return a.sysForward(args)
		default:
			return err
		}
	}
}

// TryRecv fetches an unread message from a receive gate without blocking.
// The message is a view of its receive slot, valid until AckMsg or
// ReplyMsg frees the slot.
func (a *Activity) TryRecv(rg dtu.EpID) (int, *dtu.Message, bool) {
	if !a.D.HasUnread(rg) {
		return 0, nil, false
	}
	a.X.BeginOp()
	slot, msg, err := a.D.Fetch(a.Proc(), rg)
	a.X.EndOp()
	if err != nil {
		return 0, nil, false
	}
	return slot, msg, true
}

// Recv blocks until a message arrives on the receive gate and fetches it.
func (a *Activity) Recv(rg dtu.EpID) (int, *dtu.Message) {
	for {
		if slot, msg, ok := a.TryRecv(rg); ok {
			return slot, msg
		}
		a.X.WaitForMsg(rg)
	}
}

// ReplyMsg answers a fetched message. orig must be the fetched message (it
// carries the routing information the M³x slow path needs when the
// requester was switched out meanwhile). data must not be a view of orig:
// the REPLY frees orig's slot.
func (a *Activity) ReplyMsg(rg dtu.EpID, slot int, orig *dtu.Message, data []byte, vaddr uint64) error {
	// A REPLY that finds no recipient has already freed the slot, so the
	// slow path routes by a copy of orig's header taken before.
	var hdr dtu.Message
	if orig != nil {
		hdr = *orig
		hdr.Data = nil
	}
	for {
		a.X.BeginOp()
		err := a.D.Reply(a.Proc(), rg, slot, data, vaddr)
		a.X.EndOp()
		switch {
		case errors.Is(err, dtu.ErrTLBMiss):
			if ferr := a.X.FixTranslation(vaddr, dtu.PermR); ferr != nil {
				return ferr
			}
		case errors.Is(err, dtu.ErrNoRecipient) && !a.D.Virtualized() && orig != nil:
			return a.sysForwardReply(&hdr, data)
		default:
			return err
		}
	}
}

// AckMsg releases a fetched message slot without replying.
func (a *Activity) AckMsg(rg dtu.EpID, slot int) {
	a.X.BeginOp()
	_ = a.D.Ack(a.Proc(), rg, slot)
	a.X.EndOp()
}

// Call performs an RPC: send on sg, await and consume the reply on rg. The
// reply is copied into the activity's reply buffer before its slot is
// freed; the returned bytes stay valid until the next Call.
func (a *Activity) Call(sg, rg dtu.EpID, req []byte) ([]byte, error) {
	if err := a.Send(sg, req, 0, rg, 0); err != nil {
		return nil, err
	}
	slot, msg := a.Recv(rg)
	a.resp = append(a.resp[:0], msg.Data...)
	a.AckMsg(rg, slot)
	return a.resp, nil
}

// ReadMem fills dst from a memory gate at offset off, page by page.
func (a *Activity) ReadMem(ep dtu.EpID, off uint64, dst []byte, vaddr uint64) error {
	for len(dst) > 0 {
		chunk := min(len(dst), dtu.PageSize)
		if err := a.readPage(ep, off, dst[:chunk], vaddr); err != nil {
			return err
		}
		off += uint64(chunk)
		dst = dst[chunk:]
	}
	return nil
}

// readPage issues one DTU read of at most a page, resolving TLB misses.
func (a *Activity) readPage(ep dtu.EpID, off uint64, dst []byte, vaddr uint64) error {
	for {
		a.X.BeginOp()
		err := a.D.ReadInto(a.Proc(), ep, off, dst, vaddr)
		a.X.EndOp()
		if errors.Is(err, dtu.ErrTLBMiss) {
			if ferr := a.X.FixTranslation(vaddr, dtu.PermW); ferr != nil {
				return ferr
			}
			continue
		}
		return err
	}
}

// WriteMem writes data through a memory gate, page by page.
func (a *Activity) WriteMem(ep dtu.EpID, off uint64, data []byte, vaddr uint64) error {
	for len(data) > 0 {
		chunk := len(data)
		if chunk > dtu.PageSize {
			chunk = dtu.PageSize
		}
		a.X.BeginOp()
		err := a.D.Write(a.Proc(), ep, off, data[:chunk], vaddr)
		a.X.EndOp()
		if errors.Is(err, dtu.ErrTLBMiss) {
			if ferr := a.X.FixTranslation(vaddr, dtu.PermR); ferr != nil {
				return ferr
			}
			continue
		}
		if err != nil {
			return err
		}
		data = data[chunk:]
		off += uint64(chunk)
	}
	return nil
}

// Serve runs a service loop on a receive gate: each request is passed to
// handler and its return value sent as the reply. handler returning nil
// data with done=true ends the loop.
func (a *Activity) Serve(rg dtu.EpID, handler func(msg *dtu.Message) (resp []byte, done bool)) {
	for {
		slot, msg := a.Recv(rg)
		resp, done := handler(msg)
		if resp != nil {
			if err := a.ReplyMsg(rg, slot, msg, resp, 0); err != nil {
				panic(fmt.Sprintf("%s: serve reply failed: %v", a.Name, err))
			}
		} else {
			a.AckMsg(rg, slot)
		}
		if done {
			return
		}
	}
}
