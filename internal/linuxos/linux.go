// Package linuxos models the Linux 5.11 reference system of the paper's
// evaluation (§6.2–§6.5): a monolithic kernel running bare-metal on a
// single tile, because "tiles are not cache coherent, as required by
// Linux". The model is a cost-annotated single-core OS: processes alternate
// cooperatively (sched_yield), every file or socket operation is a system
// call with kernel-entry, bookkeeping, and copy costs, and user/system time
// is accounted getrusage-style.
//
// The model is calibrated against the paper's measured Linux numbers
// (Figure 6: no-op syscall ≈ 2k cycles at 80 MHz; Figure 7: tmpfs
// throughput; Figure 8: UDP latency) — it is a reference cost line, not a
// kernel reimplementation.
package linuxos

import (
	"fmt"
	"io"

	"m3v/internal/sim"
)

// The Linux cost model in core cycles.
const (
	syscallEntryCycles int64 = 1700 // no-op syscall: entry + exit
	ctxSwitchCycles    int64 = 1400 // scheduler switch (on top of the syscall)
	// postSyscallUserCycles models the application-side cache refill after a
	// system call evicted its working set (paper §6.5.2: "the small L1
	// instruction cache and Linux' code size cause the application to lose
	// most of its state on every system call"). Charged as user time.
	postSyscallUserCycles int64 = 350

	copyBytesPerCycle    int64 = 12   // kernel<->user copy bandwidth
	readBaseCycles       int64 = 200  // tmpfs per-read bookkeeping
	writeBaseCycles      int64 = 800  // tmpfs per-write bookkeeping
	writeAllocPageCycles int64 = 2800 // block allocation + clearing per new page
	openCycles           int64 = 2200
	seekCycles           int64 = 200
	closeCycles          int64 = 400
	statCycles           int64 = 900
	unlinkCycles         int64 = 1800

	udpSendCycles int64 = 2600 // protocol processing + driver, send side
	udpRecvCycles int64 = 3200 // protocol processing + driver + interrupt, receive side
)

// Machine is one Linux instance on one core.
type Machine struct {
	eng   *sim.Engine
	clock sim.Clock

	cur  *Proc
	runq []*Proc

	files map[string]*file

	// NIC peer model for UDP: one-way wire+peer latency and an optional
	// echo function producing the peer's response.
	PeerDelay sim.Time
	PeerEcho  func(data []byte) []byte

	// Syscalls counts system calls, for reports.
	Syscalls int64
}

type file struct {
	data []byte
}

// New creates a Linux machine.
func New(eng *sim.Engine, clock sim.Clock) *Machine {
	return &Machine{
		eng:       eng,
		clock:     clock,
		files:     make(map[string]*file),
		PeerDelay: 60 * sim.Microsecond,
	}
}

func (m *Machine) cy(n int64) sim.Time { return m.clock.Cycles(n) }

// Proc is one Linux process.
type Proc struct {
	Name string
	m    *Machine
	sp   *sim.Proc

	fds    map[int]*fd
	nextFd int

	inbox [][]byte // received UDP datagrams

	// refill overrides the machine's PostSyscallUser cost: the cache-state
	// loss per system call grows with the application's working set (paper
	// §6.5.2). Negative = use the machine default.
	refill int64

	user, sys sim.Time
	done      bool
}

// SetSyscallRefill sets the per-syscall application cache-refill cost in
// cycles, modelling a large working set (leveldb) versus a tiny one
// (microbenchmarks).
func (p *Proc) SetSyscallRefill(cycles int64) { p.refill = cycles }

type fd struct {
	f     *file
	pos   int
	write bool
}

// Spawn starts a process; it becomes runnable immediately.
func (m *Machine) Spawn(name string, fn func(p *Proc)) *Proc {
	lp := &Proc{Name: name, m: m, fds: make(map[int]*fd), nextFd: 3, refill: -1}
	lp.sp = m.eng.Spawn("linux:"+name, func(sp *sim.Proc) {
		lp.waitTurn()
		fn(lp)
		lp.done = true
		m.next(lp)
	})
	if m.cur == nil {
		m.cur = lp
	} else {
		m.runq = append(m.runq, lp)
	}
	return lp
}

// waitTurn parks until the scheduler picked this process.
func (p *Proc) waitTurn() {
	for p.m.cur != p {
		p.sp.Park()
	}
}

// next hands the core to the next runnable process.
func (m *Machine) next(self *Proc) {
	if len(m.runq) == 0 {
		if self.done {
			m.cur = nil
		}
		return
	}
	nxt := m.runq[0]
	m.runq = m.runq[1:]
	if !self.done {
		m.runq = append(m.runq, self)
	}
	m.cur = nxt
	nxt.sp.Wake()
}

// Done reports whether the process function returned.
func (p *Proc) Done() bool { return p.done }

// Rusage reports accumulated user and system time.
func (p *Proc) Rusage() (user, sys sim.Time) { return p.user, p.sys }

// Now reports the current simulated time.
func (p *Proc) Now() sim.Time { return p.sp.Now() }

// Compute charges user-mode computation.
func (p *Proc) Compute(cycles int64) {
	d := p.m.cy(cycles)
	p.sp.Sleep(d)
	p.user += d
}

// syscall charges a system call of the given kernel cost and the
// application's post-syscall cache refill.
func (p *Proc) syscall(kernelCycles int64) {
	m := p.m
	m.Syscalls++
	d := m.cy(syscallEntryCycles + kernelCycles)
	p.sp.Sleep(d)
	p.sys += d
	refill := postSyscallUserCycles
	if p.refill >= 0 {
		refill = p.refill
	}
	if refill > 0 {
		u := m.cy(refill)
		p.sp.Sleep(u)
		p.user += u
	}
}

// SyscallNoop performs a no-op system call (the Figure 6 reference).
func (p *Proc) SyscallNoop() { p.syscall(0) }

// Yield performs sched_yield: a system call plus a context switch to the
// next runnable process.
func (p *Proc) Yield() {
	m := p.m
	p.syscall(ctxSwitchCycles)
	if len(m.runq) == 0 {
		return
	}
	m.next(p)
	p.waitTurn()
}

// copyCycles reports the kernel<->user copy cost for n bytes.
func copyCycles(n int) int64 {
	return int64(n) / copyBytesPerCycle
}

// --- tmpfs ------------------------------------------------------------------

// Create opens a file for writing, truncating it.
func (p *Proc) Create(path string) int {
	p.syscall(openCycles)
	f := &file{}
	p.m.files[path] = f
	h := p.nextFd
	p.nextFd++
	p.fds[h] = &fd{f: f, write: true}
	return h
}

// Open opens an existing file for reading; it returns -1 if absent.
func (p *Proc) Open(path string) int {
	p.syscall(openCycles)
	f, ok := p.m.files[path]
	if !ok {
		return -1
	}
	h := p.nextFd
	p.nextFd++
	p.fds[h] = &fd{f: f}
	return h
}

// Read reads up to len(buf) bytes; every call is a system call with a
// kernel-to-user copy.
func (p *Proc) Read(fd int, buf []byte) (int, error) {
	h := p.fds[fd]
	if h == nil {
		return 0, fmt.Errorf("linux: bad fd %d", fd)
	}
	n := len(buf)
	if rem := len(h.f.data) - h.pos; n > rem {
		n = rem
	}
	p.syscall(readBaseCycles + copyCycles(n))
	if n == 0 {
		return 0, io.EOF
	}
	copy(buf, h.f.data[h.pos:h.pos+n])
	h.pos += n
	return n, nil
}

// Write appends len(buf) bytes; new pages are allocated and cleared.
func (p *Proc) Write(fd int, buf []byte) (int, error) {
	h := p.fds[fd]
	if h == nil || !h.write {
		return 0, fmt.Errorf("linux: bad fd %d", fd)
	}
	const page = 4096
	oldPages := (len(h.f.data) + page - 1) / page
	newPages := (len(h.f.data) + len(buf) + page - 1) / page
	cost := writeBaseCycles + copyCycles(len(buf)) +
		int64(newPages-oldPages)*writeAllocPageCycles
	p.syscall(cost)
	h.f.data = append(h.f.data, buf...)
	return len(buf), nil
}

// Seek repositions a file descriptor.
func (p *Proc) Seek(fd int, pos int) {
	p.syscall(seekCycles)
	if h := p.fds[fd]; h != nil {
		h.pos = pos
	}
}

// Close closes a file descriptor.
func (p *Proc) Close(fd int) {
	p.syscall(closeCycles)
	delete(p.fds, fd)
}

// Stat returns a file's size (-1 if absent).
func (p *Proc) Stat(path string) int {
	p.syscall(statCycles)
	if f, ok := p.m.files[path]; ok {
		return len(f.data)
	}
	return -1
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) {
	p.syscall(unlinkCycles)
	delete(p.m.files, path)
}

// --- UDP --------------------------------------------------------------------

// Sendto transmits a datagram to the external peer. If the machine has a
// PeerEcho, the peer's answer arrives in the process inbox after the
// round-trip wire delay.
func (p *Proc) Sendto(data []byte) {
	m := p.m
	p.syscall(udpSendCycles + copyCycles(len(data)))
	if m.PeerEcho == nil {
		return
	}
	d := append([]byte(nil), data...)
	m.eng.After(2*m.PeerDelay, func() {
		resp := m.PeerEcho(d)
		if resp != nil {
			p.inbox = append(p.inbox, resp)
			p.sp.Wake()
		}
	})
}

// Recvfrom blocks until a datagram arrives and returns it.
func (p *Proc) Recvfrom() []byte {
	for len(p.inbox) == 0 {
		// recvfrom blocks in the kernel; the interrupt wakes it.
		p.sp.Park()
	}
	data := p.inbox[0]
	p.inbox = p.inbox[1:]
	p.syscall(udpRecvCycles + copyCycles(len(data)))
	return data
}
