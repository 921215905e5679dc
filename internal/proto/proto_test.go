package proto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	msg := new(Writer).Reset(OpCreateActivity).
		U8(0xAB).
		U16(0xCDEF).
		U32(0xDEADBEEF).
		U64(0x0123456789ABCDEF).
		Str("hello").
		Bytes([]byte{1, 2, 3}).
		Done()
	op, r, err := ParseOp(msg)
	if err != nil || op != OpCreateActivity {
		t.Fatalf("ParseOp = (%v,%v)", op, err)
	}
	if v := r.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xCDEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", v)
	}
	if s := r.Str(); s != "hello" {
		t.Errorf("Str = %q", s)
	}
	if b := r.BytesField(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", b)
	}
	if r.Err() != nil {
		t.Errorf("Err = %v", r.Err())
	}
}

func TestTruncationIsSticky(t *testing.T) {
	msg := new(Writer).Reset(OpNoop).U16(7).Done()
	_, r, err := ParseOp(msg)
	if err != nil {
		t.Fatal(err)
	}
	r.U16()
	if v := r.U64(); v != 0 {
		t.Errorf("truncated U64 = %d, want 0", v)
	}
	if r.Err() == nil {
		t.Error("no sticky error after truncation")
	}
	// Every further read stays zero.
	if r.U8() != 0 || r.Str() != "" || r.BytesField() != nil {
		t.Error("reads after truncation returned data")
	}
}

func TestEmptyMessage(t *testing.T) {
	if _, _, err := ParseOp(nil); err == nil {
		t.Error("ParseOp(nil) succeeded")
	}
}

func TestRespRoundTrip(t *testing.T) {
	var w Writer
	resp := w.Resp(EOK, 42, 7)
	code, r, err := ParseResp(resp)
	if err != nil || code != EOK {
		t.Fatalf("ParseResp = (%v,%v)", code, err)
	}
	if v := r.U64(); v != 42 {
		t.Errorf("first word = %d", v)
	}
	if v := r.U64(); v != 7 {
		t.Errorf("second word = %d", v)
	}
	errResp := w.Resp(ENoSuchCap)
	code, _, _ = ParseResp(errResp)
	if code.Err() == nil {
		t.Error("error code produced nil error")
	}
	if EOK.Err() != nil {
		t.Error("EOK produced an error")
	}
}

func TestRespBytes(t *testing.T) {
	resp := new(Writer).RespBytes(EOK, []byte("payload"))
	code, r, err := ParseResp(resp)
	if err != nil || code != EOK {
		t.Fatal(err)
	}
	if b := r.BytesField(); string(b) != "payload" {
		t.Errorf("payload = %q", b)
	}
}

func TestNonRespRejected(t *testing.T) {
	msg := new(Writer).Reset(OpNoop).Done()
	if _, _, err := ParseResp(msg); err == nil {
		t.Error("non-response parsed as response")
	}
}

// TestRoundTripProperty: any (u32, u64, string, bytes) tuple survives.
func TestRoundTripProperty(t *testing.T) {
	f := func(a uint32, b uint64, s string, d []byte) bool {
		if len(s) > 60000 {
			s = s[:60000]
		}
		msg := new(Writer).Reset(OpDelegate).U32(a).U64(b).Str(s).Bytes(d).Done()
		_, r, err := ParseOp(msg)
		if err != nil {
			return false
		}
		return r.U32() == a && r.U64() == b && r.Str() == s &&
			bytes.Equal(r.BytesField(), d) && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFuzzTruncation: no parser panics on any truncation of a valid message.
func TestFuzzTruncation(t *testing.T) {
	msg := new(Writer).Reset(OpOpenSess).Str("some-service").U32(99).Bytes([]byte("xyz")).Done()
	for cut := 0; cut <= len(msg); cut++ {
		op, r, err := ParseOp(msg[:cut])
		if err != nil {
			continue
		}
		_ = op
		r.Str()
		r.U32()
		r.BytesField()
		// Err may or may not be set depending on the cut; no panic is the
		// invariant.
	}
}

// TestReuseAllocatesNothing pins the allocation-free message path: a warm
// Writer rebuilds a message in its buffer, ParseOp and ParseResp return
// Readers by value that read in place, BytesField is a view of the
// message, and ErrCode.Err hands out one error per code.
func TestReuseAllocatesNothing(t *testing.T) {
	var w Writer
	payload := []byte("payload")
	round := func() {
		msg := w.Reset(OpForward).U8(1).U16(2).U32(3).U64(4).Bytes(payload).Done()
		op, r, err := ParseOp(msg)
		if err != nil || op != OpForward || r.U8() != 1 || r.U16() != 2 || r.U32() != 3 || r.U64() != 4 {
			panic("round trip failed")
		}
		if b := r.BytesField(); &b[0] != &msg[len(msg)-len(payload)] {
			panic("BytesField copied")
		}
		code, r, err := ParseResp(w.Resp(ENoSpace, 5, 6))
		if err != nil || code != ENoSpace || r.U64() != 5 || r.U64() != 6 {
			panic("response round trip failed")
		}
		if code.Err() != ENoSpace.Err() {
			panic("Err built a new error")
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%.1f allocs per round, want 0", n)
	}
}
