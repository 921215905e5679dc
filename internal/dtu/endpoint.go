// Package dtu models the data transfer unit (DTU) and its virtualized
// variant (vDTU), the per-tile hardware component of the M³/M³v platform
// (paper §3.4–§3.8, §4.1).
//
// The DTU exposes three interfaces:
//
//   - the unprivileged interface used by activities (SEND, REPLY, READ,
//     WRITE, FETCH_MSG, ACK_MSG);
//   - the privileged interface used only by TileMux on vDTUs (CUR_ACT,
//     atomic activity switch, software-loaded TLB, core-request queue);
//   - the external interface used only by the controller to configure
//     endpoints and thereby establish communication channels.
package dtu

import (
	"fmt"

	"m3v/internal/noc"
)

// EpID indexes the endpoint register file.
type EpID int

// NumEPs is the size of the endpoint register file (paper §4.1: 128
// endpoints).
const NumEPs = 128

// NumPMPEPs is the number of endpoints reserved for physical-memory
// protection (paper §4.1: "the current implementation uses the first four
// endpoints as memory endpoints for PMP").
const NumPMPEPs = 4

// ActID identifies an activity on a tile. The ids are tile-local in the
// vDTU's endpoint tags.
type ActID uint16

// Reserved activity ids.
const (
	// ActInvalid tags endpoints not owned by any activity.
	ActInvalid ActID = 0xFFFF
	// ActTileMux is TileMux's own activity id (paper §4.2: TileMux "has a
	// special activity id and these endpoints are tagged with this id").
	ActTileMux ActID = 0xFFFE
)

// EpKind is the configured type of an endpoint.
type EpKind uint8

// Endpoint kinds (paper §2.1).
const (
	EpInvalid EpKind = iota
	EpSend
	EpReceive
	EpMemory
)

func (k EpKind) String() string {
	switch k {
	case EpInvalid:
		return "invalid"
	case EpSend:
		return "send"
	case EpReceive:
		return "receive"
	case EpMemory:
		return "memory"
	default:
		return fmt.Sprintf("EpKind(%d)", uint8(k))
	}
}

// Perm is a memory access permission mask.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermRW = PermR | PermW
)

// Has reports whether p includes all bits of q.
func (p Perm) Has(q Perm) bool { return p&q == q }

// Endpoint is one entry of the DTU's endpoint register file. Only the fields
// of the configured kind are meaningful. Endpoints may only be configured
// through the external interface (the controller); this is what isolates
// tiles from each other.
type Endpoint struct {
	Kind EpKind
	// Act tags the owning activity (vDTU endpoint protection, paper §3.5).
	Act ActID

	// Send endpoint state.
	TgtTile    noc.TileID // destination tile
	TgtEp      EpID       // destination receive endpoint
	Label      uint64     // delivered with each message; identifies the channel
	Credits    int        // remaining messages that may be in flight
	MaxCredits int
	MsgSize    int // maximum message payload in bytes
	// Reply marks a send endpoint that was created implicitly for replying;
	// such endpoints are single-shot.
	Reply bool

	// Receive endpoint state.
	Slots    int // number of receive buffer slots (power of two)
	SlotSize int // bytes per slot
	slots    []recvSlot
	unread   uint64 // bitmap of slots holding unfetched messages
	occupied uint64 // bitmap of slots holding unacked messages

	// Memory endpoint state.
	MemTile noc.TileID // memory tile holding the region
	MemBase uint64     // base offset within the memory tile
	MemSize uint64
	MemPerm Perm
}

// recvSlot is one receive buffer slot. Its message's Data is the slot's
// own buffer: it grows lazily to the largest message the slot has held,
// and keeps that capacity while the slot is free.
type recvSlot struct {
	msg Message
}

// freedByte overwrites the bytes of a freed slot, so that a reader that
// kept a view of its message past ACK_MSG or REPLY reads garbage, the same
// garbage every run, instead of a plausible message.
const freedByte = 0xEE

// store puts a message into the free slot i: the header hdr, and a copy of
// payload in the slot's own buffer.
//
//m3v:noalloc
func (ep *Endpoint) store(i int, hdr Message, payload []byte) {
	bit := uint64(1) << uint(i)
	ep.occupied |= bit
	ep.unread |= bit
	m := &ep.slots[i].msg
	buf := m.Data[:0]
	*m = hdr
	//m3vlint:ignore noalloc amortized growth: the slot buffer grows to the largest message the slot has held, then every message reuses it
	m.Data = append(buf, payload...)
}

// free retires slot i and overwrites its bytes with freedByte.
//
//m3v:noalloc
func (ep *Endpoint) free(i int) {
	bit := uint64(1) << uint(i)
	ep.occupied &^= bit
	ep.unread &^= bit
	data := ep.slots[i].msg.Data
	for j := range data {
		data[j] = freedByte
	}
}

// UnreadCount reports the number of unfetched messages in a receive endpoint.
func (ep *Endpoint) UnreadCount() int {
	n := 0
	for b := ep.unread; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// freeSlot returns the index of a slot that is neither occupied nor unread,
// or -1 if the buffer is full.
func (ep *Endpoint) freeSlot() int {
	for i := 0; i < ep.Slots; i++ {
		if ep.occupied&(1<<uint(i)) == 0 {
			return i
		}
	}
	return -1
}

// InjectMessage stores a message directly into a receive endpoint's buffer,
// bypassing the NoC. Only the M³x controller uses it: with saved DTU state
// in controller memory, the slow path delivers messages by writing them into
// the saved receive buffer (M³x ATC'19); the state reaches the tile on
// restore. The payload is copied into the slot. It reports false if no
// slot is free.
func (ep *Endpoint) InjectMessage(msg Message) bool {
	if ep.Kind != EpReceive {
		return false
	}
	slot := ep.freeSlot()
	if slot < 0 {
		return false
	}
	ep.store(slot, msg, msg.Data)
	return true
}

// SendEP builds a send endpoint configuration.
func SendEP(act ActID, tile noc.TileID, tgtEp EpID, label uint64, credits, msgSize int) Endpoint {
	return Endpoint{
		Kind: EpSend, Act: act,
		TgtTile: tile, TgtEp: tgtEp, Label: label,
		Credits: credits, MaxCredits: credits, MsgSize: msgSize,
	}
}

// RecvEP builds a receive endpoint configuration with the given slot count
// (must be a power of two) and slot size.
func RecvEP(act ActID, slots, slotSize int) Endpoint {
	if slots <= 0 || slots > 64 || slots&(slots-1) != 0 {
		panic(fmt.Sprintf("dtu: invalid receive slot count %d", slots))
	}
	return Endpoint{
		Kind: EpReceive, Act: act,
		Slots: slots, SlotSize: slotSize,
		slots: make([]recvSlot, slots),
	}
}

// MemEP builds a memory endpoint granting access to [base, base+size) on the
// given memory tile.
func MemEP(act ActID, tile noc.TileID, base, size uint64, perm Perm) Endpoint {
	return Endpoint{
		Kind: EpMemory, Act: act,
		MemTile: tile, MemBase: base, MemSize: size, MemPerm: perm,
	}
}
