package dtu

import (
	"fmt"

	"m3v/internal/noc"
	"m3v/internal/sim"
)

// This file holds the state of the DTU's blocking round trips: SEND, REPLY,
// SendRaw, READ, WRITE and the three external requests all send one request
// packet and park the issuing process until the answer comes back. Each
// round trip runs on a cmd taken from its DTU's free list. The request
// packet's payload is the *cmd itself; the serving DTU writes its result
// into it and sends it back as the response packet. The engine callbacks
// are method values cached when a cmd is first built (the noc.inflight
// idiom), so a warm round trip allocates nothing of its own.
//
// Lifetime: only the issuing process releases a cmd, and only after it has
// observed completion. Completion is the last event that touches a cmd: a
// request that is dropped for good never reaches the server, and the
// server's OnMsgArrived callback is scheduled before its response at the
// same delay, so it always runs first. A released cmd is therefore never
// referenced by a pending event or packet. A READ's bytes travel back in
// the cmd's pooled buf and reach the caller's buffer only on success.

// cmdOp is the kind of request a cmd carries.
type cmdOp uint8

const (
	opMsg      cmdOp = iota // SEND, REPLY, SendRaw: store msg at ep
	opRead                  // READ: len(buf) bytes at off of a memory tile
	opWrite                 // WRITE: buf at off of a memory tile
	opConfig                // ConfigureRemote: install conf at ep
	opReadEps               // ReadEpsRemote: copy endpoints into eps
	opWriteEps              // WriteEpsRemote: install confs
)

// cmd is one round trip in flight. Only the fields of its op are used.
type cmd struct {
	d    *DTU       // issuing DTU
	op   cmdOp      // request kind
	dst  noc.TileID // serving tile
	size int        // request bytes on the wire

	// Request operands.
	ep           EpID       // opMsg: receive endpoint; opConfig: target
	msg          Message    // opMsg
	crdRet       EpID       // opMsg: piggybacked credit return, or -1
	off          uint64     // opRead, opWrite: offset within the memory tile
	buf          []byte     // opRead: the bytes read; opWrite: the payload; capacity reused
	conf         Endpoint   // opConfig
	first, count int        // opReadEps: requested window
	eps          []Endpoint // opReadEps: the caller's result buffer
	confs        []EpConf   // opWriteEps

	// Server side: the serving DTU, the owner of the endpoint that stored
	// an opMsg (for OnMsgArrived), and whether the packet now travelling
	// is the response.
	remote *DTU
	act    ActID
	resp   bool

	// Completion: the result, the parked issuer and its wake-up condition.
	err  error
	p    *sim.Proc
	done bool

	// Cached callbacks, built once per cmd.
	issueFn, respondFn, arrivedFn, dropFn func()
}

// acquireCmd takes a cmd off the free list (or builds one) and sets up a
// request of the given kind, destination and wire size.
//
//m3v:noalloc
func (d *DTU) acquireCmd(op cmdOp, dst noc.TileID, size int) *cmd {
	var c *cmd
	if n := len(d.freeCmds); n > 0 {
		c = d.freeCmds[n-1]
		d.freeCmds = d.freeCmds[:n-1]
	} else {
		//m3vlint:ignore noalloc amortized cold path: the pool grows to the DTU's peak number of concurrent commands, then every command reuses it
		c = d.newCmd()
	}
	c.op, c.dst, c.size = op, dst, size
	return c
}

func (d *DTU) newCmd() *cmd {
	c := &cmd{d: d}
	c.issueFn = c.issue
	c.respondFn = c.respond
	c.arrivedFn = c.arrived
	c.dropFn = c.dropped
	return c
}

// releaseCmd clears c, dropping every reference to payloads and endpoint
// state, and returns it to the free list. Only the issuing process calls
// it, after await returned.
//
//m3v:noalloc
func (d *DTU) releaseCmd(c *cmd) {
	*c = cmd{d: d, buf: c.buf[:0],
		issueFn: c.issueFn, respondFn: c.respondFn, arrivedFn: c.arrivedFn, dropFn: c.dropFn}
	//m3vlint:ignore noalloc amortized growth: the free list's capacity reaches the peak number of concurrent commands once
	d.freeCmds = append(d.freeCmds, c)
}

// await issues c's request after the DTU's processing delay and parks p
// until the response or a terminal drop completes it. It returns the
// command's error; the caller reads any other results, then releases c.
//
//m3v:noalloc
//m3v:simctx
func (c *cmd) await(p *sim.Proc) error {
	c.p = p
	c.d.eng.After(procTime, c.issueFn)
	for !c.done {
		p.Park()
	}
	return c.err
}

// complete records that the round trip is over and wakes the issuer.
//
//m3v:noalloc
func (c *cmd) complete() {
	if c.done {
		panic("dtu: command completed twice")
	}
	c.done = true
	c.p.Wake()
}

// issue puts the request packet on the NoC (cached in issueFn). A request
// dropped for good surfaces as ErrXferTimeout instead of leaving the
// command parked forever.
func (c *cmd) issue() {
	d := c.d
	np := d.net.NewPacket(d.tile, c.dst, c.size, c)
	np.Flow = c.msg.Flow // 0 for everything but messages
	np.Drop = c.dropFn
	d.net.Send(np)
}

// dropped completes a command whose request or response the NoC gave up
// on (cached in dropFn).
func (c *cmd) dropped() {
	c.err = ErrXferTimeout
	c.complete()
}

// arrived tells the serving tile that a message was stored for c.act
// (cached in arrivedFn).
func (c *cmd) arrived() { c.remote.OnMsgArrived(c.act) }

// serve handles a request packet on the DTU it targets: it performs the
// request (the memory access itself is deferred to the response, after
// the DRAM delay) and schedules the response. It reports false when the
// NoC has to retry the packet later.
func (d *DTU) serve(c *cmd) bool {
	c.remote = d
	delay := procTime
	switch c.op {
	case opMsg:
		return d.deliverMsg(c)
	case opRead, opWrite:
		if d.mem == nil {
			panic(fmt.Sprintf("dtu: tile %d got a memory access but has no DRAM", d.tile))
		}
		delay = d.mem.AccessDelay(len(c.buf))
	case opConfig:
		c.err = d.ConfigureLocal(c.ep, c.conf)
	case opReadEps:
		// The part of [first, first+count) inside the register file,
		// snapshotted now; a window that misses it reads nothing.
		lo := min(max(c.first, 0), NumEPs)
		hi := min(max(c.first+c.count, lo), NumEPs)
		c.eps = append(c.eps[:0], d.eps[lo:hi]...)
	case opWriteEps:
		for _, ec := range c.confs {
			if err := d.ConfigureLocal(ec.Ep, ec.Conf); err != nil {
				panic(fmt.Sprintf("dtu: bulk EP write failed: %v", err))
			}
		}
	}
	d.eng.After(delay, c.respondFn)
	return true
}

// respond sends c back to its issuer from the serving DTU (cached in
// respondFn). Memory accesses happen here, once the DRAM delay has passed.
func (c *cmd) respond() {
	r := c.remote
	size := headerBytes
	switch c.op {
	case opRead:
		r.mem.ReadAt(c.off, c.buf)
		size += len(c.buf)
	case opWrite:
		r.mem.WriteAt(c.off, c.buf)
	case opReadEps:
		size = extReqBytes * len(c.eps)
	}
	c.resp = true
	np := r.net.NewPacket(r.tile, c.d.tile, size, c)
	np.Drop = c.dropFn
	r.net.Send(np)
}
