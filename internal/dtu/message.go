package dtu

import (
	"errors"
	"fmt"

	"m3v/internal/noc"
)

// headerBytes is the on-wire size of a message header; it counts toward the
// NoC serialization time.
const headerBytes = 16

// Message is a received message as stored in a receive buffer slot.
type Message struct {
	// Label is the receive-side channel label from the sender's send
	// endpoint; services use it to identify the session.
	Label uint64
	// SndTile/SndAct identify the sender.
	SndTile noc.TileID
	SndAct  ActID
	// ReplyEp is the receive endpoint on the sender's tile that a REPLY is
	// delivered to, and CrdEp the sender's send endpoint to return credits
	// to on acknowledgement. Both are -1 for messages sent without a reply
	// channel.
	ReplyEp EpID
	CrdEp   EpID
	// ReplyLabel is delivered as the Label of the reply message.
	ReplyLabel uint64
	// Flow is the message's trace flow ID, minted at the sending endpoint
	// (0 when tracing is disabled). It is model metadata: it travels with
	// the message through receive slots and saved endpoint state, but does
	// not contribute to the on-wire size.
	Flow uint64
	// Data is the payload.
	Data []byte
}

// Errors surfaced by DTU commands to software. These correspond to the error
// codes of the hardware command registers.
var (
	// ErrUnknownEp: the endpoint is not configured, has the wrong kind, or
	// belongs to another activity (paper §3.5: attempts to use endpoints of
	// another activity yield "unknown endpoint" to prevent information
	// leaks).
	ErrUnknownEp = errors.New("dtu: unknown endpoint")
	// ErrNoCredits: the send endpoint has no credits left.
	ErrNoCredits = errors.New("dtu: missing credits")
	// ErrNoRecipient: the destination DTU has no matching receive endpoint.
	// On M³x this is the trigger for slow-path communication via the
	// controller (paper §2.2).
	ErrNoRecipient = errors.New("dtu: no recipient")
	// ErrTLBMiss: the buffer address is not in the software-loaded TLB; the
	// activity must ask TileMux for a translation and retry (paper §3.6).
	ErrTLBMiss = errors.New("dtu: TLB miss")
	// ErrNoPerm: PMP or memory-endpoint permission check failed.
	ErrNoPerm = errors.New("dtu: no permission")
	// ErrMsgTooLarge: payload exceeds the endpoint's maximum message size.
	ErrMsgTooLarge = errors.New("dtu: message too large")
	// ErrInvalidArgs: malformed command arguments.
	ErrInvalidArgs = errors.New("dtu: invalid arguments")
	// ErrPageBoundary: a transfer source or destination crosses a page
	// boundary (paper §3.6 restricts transfers to a single page).
	ErrPageBoundary = errors.New("dtu: buffer crosses page boundary")
	// ErrNoMessage: FETCH_MSG found no unread message.
	ErrNoMessage = errors.New("dtu: no message")
	// ErrAborted: the command was aborted by a concurrent activity switch.
	ErrAborted = errors.New("dtu: command aborted")
	// ErrXferTimeout: the transfer did not complete — the NoC dropped the
	// packet for good, or a fault was injected into the command. Transient:
	// the command wrappers retry it with exponential backoff when fault
	// recovery is armed.
	ErrXferTimeout = errors.New("dtu: transfer timed out")
)

// creditPacket returns credits to a send endpoint after the receiver acked a
// message slot. The other NoC payload between DTUs is a *cmd (cmd.go), for
// both the request and the response of a round trip.
type creditPacket struct {
	DstEp EpID
}

// EpConf pairs an endpoint id with a configuration for bulk writes.
type EpConf struct {
	Ep   EpID
	Conf Endpoint
}

// String implements fmt.Stringer for diagnostics.
func (m *Message) String() string {
	return fmt.Sprintf("msg{label=%#x from=T%d/A%d reply=%d len=%d}",
		m.Label, m.SndTile, m.SndAct, m.ReplyEp, len(m.Data))
}
