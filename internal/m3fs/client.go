package m3fs

import (
	"fmt"
	"io"
	"strings"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/proto"
)

// Client is a POSIX-like file-system client bound to one m3fs session. It
// implements the paper's read/write model: extent capabilities are obtained
// from the server, activated on reusable endpoints, and data then moves
// directly through the vDTU.
type Client struct {
	a    *activity.Activity
	sgEp dtu.EpID
	rgEp dtu.EpID

	// The client reuses one input and one output endpoint for extent
	// capabilities across all files (the endpoint register file has 128
	// entries; per-file endpoints would exhaust it). Ownership tracks which
	// file's extent is currently activated.
	epIn, epOut           dtu.EpID
	epInOwner, epOutOwner *File
}

// NewClient opens a session with the default m3fs service.
func NewClient(a *activity.Activity) (*Client, error) {
	return NewClientNamed(a, ServiceName)
}

// NewClientNamed opens a session with a named m3fs instance.
func NewClientNamed(a *activity.Activity, service string) (*Client, error) {
	sess, err := a.SysOpenSess(service)
	if err != nil {
		return nil, fmt.Errorf("m3fs client: %w", err)
	}
	sgEp, err := a.SysActivate(sess.SGateSel)
	if err != nil {
		return nil, err
	}
	rgSel, err := a.SysCreateRGate(1, 256)
	if err != nil {
		return nil, err
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		return nil, err
	}
	c := &Client{a: a, sgEp: sgEp, rgEp: rgEp, epIn: -1, epOut: -1}
	code, _, err := c.call(c.a.Msg(opInit).U32(a.ID).Done())
	if err != nil {
		return nil, err
	}
	if code != proto.EOK {
		return nil, code.Err()
	}
	return c, nil
}

// call sends a request and parses the reply, which the Reader reads in
// the activity's reply buffer until its next Call.
func (c *Client) call(req []byte) (proto.ErrCode, proto.Reader, error) {
	c.a.Compute(clientCallCycles)
	resp, err := c.a.Call(c.sgEp, c.rgEp, req)
	if err != nil {
		return proto.EUnreachable, proto.Reader{}, err
	}
	return proto.ParseResp(resp)
}

func (c *Client) call1(req []byte) (uint64, error) {
	code, r, err := c.call(req)
	if err != nil {
		return 0, err
	}
	if code != proto.EOK {
		return 0, code.Err()
	}
	return r.U64(), nil
}

// copyCost charges the client-side buffer copy for n bytes.
func (c *Client) copyCost(n int) {
	c.a.Compute(clientCallCycles + int64(n)/copyBytesPerCycle)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.call1(c.a.Msg(opMkdir).Str(path).Done())
	return err
}

// Unlink removes a file or empty directory.
func (c *Client) Unlink(path string) error {
	_, err := c.call1(c.a.Msg(opUnlink).Str(path).Done())
	return err
}

// Stat returns a file's size and whether it is a directory.
func (c *Client) Stat(path string) (uint64, bool, error) {
	code, r, err := c.call(c.a.Msg(opStat).Str(path).Done())
	if err != nil {
		return 0, false, err
	}
	if code != proto.EOK {
		return 0, false, code.Err()
	}
	size := r.U64()
	return size, r.U64() == 1, nil
}

// ReadDir lists a directory.
func (c *Client) ReadDir(path string) ([]string, error) {
	code, r, err := c.call(c.a.Msg(opReadDir).Str(path).Done())
	if err != nil {
		return nil, err
	}
	if code != proto.EOK {
		return nil, code.Err()
	}
	raw := r.BytesField()
	if len(raw) == 0 {
		return nil, nil
	}
	return strings.Split(string(raw), "\x00"), nil
}

// File is an open file.
type File struct {
	c     *Client
	fd    uint32
	flags uint8

	// Current input extent (the capability selector is kept so the shared
	// endpoint can be re-activated if another file used it meanwhile).
	inSel cap.Sel
	inLen uint64 // readable bytes in the current extent
	inOff uint64 // consumed bytes (incl. initial skip)
	inEOF bool

	// Current output extent.
	outSel  cap.Sel
	outLen  uint64
	outUsed uint64
	outOpen bool
}

// Open opens (and with FlagCreate creates) a file.
func (c *Client) Open(path string, flags uint8) (*File, error) {
	fd, err := c.call1(c.a.Msg(opOpen).Str(path).U8(flags).Done())
	if err != nil {
		return nil, fmt.Errorf("m3fs open %s: %w", path, err)
	}
	return &File{c: c, fd: uint32(fd), flags: flags}, nil
}

// nextIn fetches the next readable extent and activates its capability on
// the file's (reused) input endpoint.
func (f *File) nextIn() error {
	code, r, err := f.c.call(f.c.a.Msg(opNextIn).U32(f.fd).Done())
	if err != nil {
		return err
	}
	if code != proto.EOK {
		return code.Err()
	}
	sel := cap.Sel(r.U64())
	avail := r.U64()
	skip := r.U64()
	if avail == 0 {
		f.inEOF = true
		return io.EOF
	}
	f.inSel = sel
	if err := f.activateIn(); err != nil {
		return err
	}
	f.inLen = skip + avail
	f.inOff = skip
	return nil
}

// activateIn binds this file's current input extent to the client's shared
// input endpoint.
func (f *File) activateIn() error {
	ep, err := f.c.a.SysActivateAt(f.inSel, f.c.epIn)
	if err != nil {
		return err
	}
	f.c.epIn = ep
	f.c.epInOwner = f
	return nil
}

// activateOut binds this file's current output extent to the shared output
// endpoint.
func (f *File) activateOut() error {
	ep, err := f.c.a.SysActivateAt(f.outSel, f.c.epOut)
	if err != nil {
		return err
	}
	f.c.epOut = ep
	f.c.epOutOwner = f
	return nil
}

// Read reads up to len(buf) bytes at the sequential position, returning the
// count. It returns io.EOF at end of file.
func (f *File) Read(buf []byte) (int, error) {
	if f.flags&FlagR == 0 {
		return 0, fmt.Errorf("m3fs: not open for reading")
	}
	if f.inEOF {
		return 0, io.EOF
	}
	if f.inSel == 0 || f.inOff >= f.inLen {
		if err := f.nextIn(); err != nil {
			return 0, err
		}
	} else if f.c.epInOwner != f {
		// Another file used the shared endpoint; re-activate our extent.
		if err := f.activateIn(); err != nil {
			return 0, err
		}
	}
	n := uint64(len(buf))
	if rem := f.inLen - f.inOff; n > rem {
		n = rem
	}
	if err := f.c.a.ReadMem(f.c.epIn, f.inOff, buf[:n], 0); err != nil {
		return 0, err
	}
	f.c.copyCost(int(n))
	f.inOff += n
	return int(n), nil
}

// nextOut obtains a fresh write extent.
func (f *File) nextOut() error {
	code, r, err := f.c.call(f.c.a.Msg(opNextOut).U32(f.fd).Done())
	if err != nil {
		return err
	}
	if code != proto.EOK {
		return code.Err()
	}
	f.outSel = cap.Sel(r.U64())
	size := r.U64()
	if err := f.activateOut(); err != nil {
		return err
	}
	f.outLen = size
	f.outUsed = 0
	f.outOpen = true
	return nil
}

// commit reports the used part of the current write extent to the server.
func (f *File) commit() error {
	if !f.outOpen {
		return nil
	}
	f.outOpen = false
	_, err := f.c.call1(f.c.a.Msg(opCommit).U32(f.fd).U64(f.outUsed).Done())
	return err
}

// Write appends data at the sequential write position.
func (f *File) Write(data []byte) (int, error) {
	if f.flags&FlagW == 0 {
		return 0, fmt.Errorf("m3fs: not open for writing")
	}
	total := 0
	for len(data) > 0 {
		if !f.outOpen || f.outUsed >= f.outLen {
			if err := f.commit(); err != nil {
				return total, err
			}
			if err := f.nextOut(); err != nil {
				return total, err
			}
		} else if f.c.epOutOwner != f {
			if err := f.activateOut(); err != nil {
				return total, err
			}
		}
		n := uint64(len(data))
		if rem := f.outLen - f.outUsed; n > rem {
			n = rem
		}
		if err := f.c.a.WriteMem(f.c.epOut, f.outUsed, data[:n], 0); err != nil {
			return total, err
		}
		f.c.copyCost(int(n))
		f.outUsed += n
		data = data[n:]
		total += int(n)
	}
	return total, nil
}

// Seek repositions the sequential read cursor.
func (f *File) Seek(pos uint64) error {
	_, err := f.c.call1(f.c.a.Msg(opSeek).U32(f.fd).U64(pos).Done())
	if err == nil {
		f.inSel, f.inLen, f.inOff, f.inEOF = 0, 0, 0, false
	}
	return err
}

// Close commits pending writes and closes the file.
func (f *File) Close() error {
	if err := f.commit(); err != nil {
		return err
	}
	_, err := f.c.call1(f.c.a.Msg(opClose).U32(f.fd).Done())
	return err
}

// ReadAll reads the whole rest of the file with the given buffer size.
func (f *File) ReadAll(bufSize int) ([]byte, error) {
	var out []byte
	buf := make([]byte, bufSize)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}
