// Package proto defines the wire protocol of the M³v operating system: the
// system-call messages activities send to the controller, the requests the
// controller sends to TileMux instances, TileMux's notifications back, and
// the page-fault protocol between TileMux and the pager (paper §3.3, §4.2,
// §4.3).
//
// Messages are encoded into real bytes with a little-endian scheme so that
// message sizes — and therefore NoC serialization costs — are honest.
package proto

import (
	"errors"
	"fmt"
)

// Op is a message opcode (first byte on the wire).
type Op uint8

// System calls (activity -> controller).
const (
	OpNoop Op = iota + 1
	OpCreateActivity
	OpCreateRGate
	OpCreateSGate
	OpCreateMGate
	OpDeriveMGate
	OpActivate
	OpDelegate
	OpRevoke
	OpCreateSrv
	OpOpenSess
	OpActivityStart
	OpActivityWait
	OpForward  // M³x slow path: deliver a message via the controller
	OpMapPages // pager -> controller: map pages into an activity
	OpSetPager // bind a pager session to an activity's TileMux
	OpActivityKill
)

// Controller -> TileMux requests.
const (
	OpMuxCreateAct Op = iota + 0x40
	OpMuxStartAct
	OpMuxKillAct
	OpMuxMapPages
	OpMuxUnmapPages
	OpMuxSetPager
	// M³x baseline: remote context switching (controller -> RCTMux).
	OpMuxSwitch
	OpMuxResume
)

// TileMux -> controller notifications.
const (
	OpNotifyExit Op = iota + 0x60
)

// TileMux -> pager, and pager session control.
const (
	OpPageFault Op = iota + 0x70
	OpPagerInit    // parent -> pager: bind a session to a child activity
)

// Generic responses.
const (
	OpResp Op = 0x80
)

// Error codes carried in responses.
type ErrCode uint16

// Error codes.
const (
	EOK ErrCode = iota
	ENoSuchCap
	EWrongKind
	EPermDenied
	ENoSpace
	EExists
	ENotFound
	EInvalid
	ENoTile
	EUnreachable
)

// codeErrs holds one error per code, so that Err never allocates.
var codeErrs = [...]error{
	ENoSuchCap:   errors.New("proto: no such capability"),
	EWrongKind:   errors.New("proto: wrong capability kind"),
	EPermDenied:  errors.New("proto: permission denied"),
	ENoSpace:     errors.New("proto: out of space"),
	EExists:      errors.New("proto: already exists"),
	ENotFound:    errors.New("proto: not found"),
	EInvalid:     errors.New("proto: invalid argument"),
	ENoTile:      errors.New("proto: no such tile"),
	EUnreachable: errors.New("proto: unreachable"),
}

// Err converts a code into a Go error (nil for EOK).
func (e ErrCode) Err() error {
	if e == EOK {
		return nil
	}
	if int(e) < len(codeErrs) {
		return codeErrs[e]
	}
	return fmt.Errorf("proto: error code %d", uint16(e))
}

// ErrTruncated reports a message shorter than its encoding requires.
var ErrTruncated = errors.New("proto: truncated message")

// Writer serializes messages into a buffer it keeps. A long-lived sender
// owns one Writer and starts each message with Reset, which reuses the
// buffer's capacity; the bytes an earlier Done returned are overwritten.
type Writer struct {
	b []byte
}

// Reset starts a new message with the given opcode in w's buffer.
//
//m3v:noalloc
func (w *Writer) Reset(op Op) *Writer {
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b[:0], byte(op))
	return w
}

// U8 appends a byte.
//
//m3v:noalloc
func (w *Writer) U8(v uint8) *Writer {
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b, v)
	return w
}

// U16 appends a little-endian uint16.
//
//m3v:noalloc
func (w *Writer) U16(v uint16) *Writer {
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b, byte(v), byte(v>>8))
	return w
}

// U32 appends a little-endian uint32.
//
//m3v:noalloc
func (w *Writer) U32(v uint32) *Writer {
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	return w
}

// U64 appends a little-endian uint64.
//
//m3v:noalloc
func (w *Writer) U64(v uint64) *Writer {
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	return w
}

// Str appends a length-prefixed string (max 64 KiB).
//
//m3v:noalloc
func (w *Writer) Str(s string) *Writer {
	w.U16(uint16(len(s)))
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b, s...)
	return w
}

// Bytes appends a length-prefixed byte slice.
//
//m3v:noalloc
func (w *Writer) Bytes(b []byte) *Writer {
	w.U32(uint32(len(b)))
	//m3vlint:ignore noalloc amortized growth: the buffer grows to the sender's largest message once, then every Reset reuses it
	w.b = append(w.b, b...)
	return w
}

// Done returns the encoded message, a view of w's buffer that stays valid
// until the next Reset.
//
//m3v:noalloc
func (w *Writer) Done() []byte { return w.b }

// Resp builds a generic response in w: an error code followed by up to
// three result words.
//
//m3v:noalloc
func (w *Writer) Resp(code ErrCode, vals ...uint64) []byte {
	w.Reset(OpResp).U16(uint16(code))
	for _, v := range vals {
		w.U64(v)
	}
	return w.b
}

// RespBytes builds a response carrying an error code and a payload in w.
//
//m3v:noalloc
func (w *Writer) RespBytes(code ErrCode, payload []byte) []byte {
	return w.Reset(OpResp).U16(uint16(code)).Bytes(payload).Done()
}

// Reader deserializes a message. Errors are sticky: after the first
// truncation every accessor returns zero and Err reports the failure. A
// Reader reads the message in place, so it is valid only as long as the
// message bytes are; it is a small value the caller owns, and reading it
// allocates nothing.
type Reader struct {
	b   []byte
	off int
	err error
}

// ParseOp reads the opcode of an encoded message and returns a Reader of
// the rest.
//
//m3v:noalloc
func ParseOp(b []byte) (Op, Reader, error) {
	if len(b) == 0 {
		return 0, Reader{err: ErrTruncated}, ErrTruncated
	}
	return Op(b[0]), Reader{b: b, off: 1}, nil
}

//m3v:noalloc
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads a byte.
//
//m3v:noalloc
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
//
//m3v:noalloc
func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	b := r.b[r.off:]
	r.off += 2
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
//
//m3v:noalloc
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	b := r.b[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
//
//m3v:noalloc
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	b := r.b[r.off:]
	r.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// Str reads a length-prefixed string. Unlike the other accessors it
// allocates: the string outlives the message.
func (r *Reader) Str() string {
	n := int(r.U16())
	if !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// BytesField reads a length-prefixed byte slice. It returns a view of the
// message that lives exactly as long as the message bytes; its capacity
// ends with the field, so appending to it copies.
//
//m3v:noalloc
func (r *Reader) BytesField() []byte {
	n := int(r.U32())
	if n < 0 || !r.need(n) {
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Err reports a deserialization failure, if any.
//
//m3v:noalloc
func (r *Reader) Err() error { return r.err }

// ParseResp decodes a generic response into its code and a Reader of the
// result words.
func ParseResp(b []byte) (ErrCode, Reader, error) {
	op, r, err := ParseOp(b)
	if err != nil {
		return EInvalid, r, err
	}
	if op != OpResp {
		return EInvalid, r, fmt.Errorf("proto: response has opcode %d", op)
	}
	code := ErrCode(r.U16())
	return code, r, r.Err()
}
