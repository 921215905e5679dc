package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/m3fs"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/serve"
	"m3v/internal/sim"
)

// A layer probe loops over one public operation on a freshly built rig and
// reports host ns, heap allocations and simulation events per operation.
// Each probe warms up (except core.boot, whose cost users pay every time),
// then times probeRounds rounds and reports the median round's ns/op.
type probe struct {
	name string
	run  func() (probeResult, error)
}

// probeResult is one probe's per-operation cost.
type probeResult struct {
	ns, allocs, events float64
}

const probeRounds = 3

// probes lists every layer probe in report order.
var probes = []probe{
	{"sim.schedule", probeSchedule},
	{"sim.handoff", probeHandoff},
	{"noc.send", probeNoCSend},
	{"dtu.send_reply", probeDTUSendReply},
	{"dtu.read4k", probeDTURead},
	{"tilemux.local_rpc", probeLocalRPC},
	{"kernel.noop_syscall", probeNoopSyscall},
	{"m3x.slow_rpc", probeM3xSlowRPC},
	{"m3fs.read4k", probeM3fsRead},
	{"core.boot", probeCoreBoot},
	{"serve.hit", probeServeHit},
}

// errNoProgress marks a probe whose simulation stopped before the loop
// reached its target.
var errNoProgress = errors.New("simulation made no progress")

// reading is one sample of the host counters a probe differences.
type reading struct {
	t       time.Time
	mallocs uint64
	events  uint64
}

func read() reading {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return reading{time.Now(), m.Mallocs, sim.TotalEventsExecuted()}
}

// rounds accumulates the timed rounds of a probe, n operations each.
type rounds struct {
	n              int
	ns             []float64 // ns/op of each round
	allocs, events uint64    // totals over all rounds
}

func (r *rounds) add(a, b reading) {
	r.ns = append(r.ns, float64(b.t.Sub(a.t).Nanoseconds())/float64(r.n))
	r.allocs += b.mallocs - a.mallocs
	r.events += b.events - a.events
}

func (r *rounds) result() probeResult {
	ops := float64(r.n * len(r.ns))
	return probeResult{median(r.ns), float64(r.allocs) / ops, float64(r.events) / ops}
}

// timed measures a host-driven probe: op(k) performs k operations.
func timed(warm, n int, op func(k int) error) (probeResult, error) {
	if warm > 0 {
		if err := op(warm); err != nil {
			return probeResult{}, err
		}
	}
	r := rounds{n: n}
	for i := 0; i < probeRounds; i++ {
		a := read()
		if err := op(n); err != nil {
			return probeResult{}, err
		}
		r.add(a, read())
	}
	return r.result(), nil
}

// simLoop measures a probe whose operations run inside a simulated
// process. The process calls gate before every operation; once it has done
// target operations, gate stops the engine, which returns control to the
// host between phases so the counters can be read outside the timed
// window.
type simLoop struct {
	done, target int
	err          error
}

// gate blocks the calling process while it has caught up with the target.
func (l *simLoop) gate(p *sim.Proc) {
	for l.done >= l.target {
		p.Engine().Stop()
		p.Sleep(0)
	}
}

// fail records a probe error and stops the engine, so the host's resume
// returns even when other processes of the rig would keep it busy.
func (l *simLoop) fail(p *sim.Proc, err error) {
	l.err = err
	p.Engine().Stop()
}

// loop runs op forever under the gate; it returns on the first error.
func (l *simLoop) loop(p *sim.Proc, op func() error) {
	for {
		l.gate(p)
		if err := op(); err != nil {
			l.fail(p, err)
			return
		}
		l.done++
	}
}

// measure drives the rig: resume runs the simulation until the process
// stops it again.
func (l *simLoop) measure(warm, n int, resume func()) (probeResult, error) {
	return timed(warm, n, func(k int) error {
		l.target += k
		resume()
		if l.err != nil {
			return l.err
		}
		if l.done != l.target {
			return fmt.Errorf("%w: %d of %d operations", errNoProgress, l.done, l.target)
		}
		return nil
	})
}

// runSystem resumes a platform for at most a simulated minute.
func runSystem(sys *core.System) func() {
	return func() { sys.Run(60 * sim.Second) }
}

// probeSchedule: Engine.After + RunUntil on a populated queue of 256
// self-rescheduling timers; one operation is one dispatched event.
func probeSchedule() (probeResult, error) {
	e := sim.NewEngine()
	defer e.Shutdown()
	executed, stop := 0, false
	for i := 0; i < 256; i++ {
		d := sim.Time(i%17+1) * sim.Nanosecond
		var tick func()
		tick = func() {
			executed++
			if !stop {
				e.After(d, tick)
			}
		}
		e.After(d, tick)
	}
	defer func() { stop = true; e.Run() }()
	return timed(200_000, 2_000_000, func(k int) error {
		for target := executed + k; executed < target; {
			e.RunUntil(e.Now() + 100*sim.Nanosecond)
		}
		return nil
	})
}

// probeHandoff: two processes waking each other with Park/Wake; one
// operation is one round trip.
func probeHandoff() (probeResult, error) {
	e := sim.NewEngine()
	defer e.Shutdown()
	var l simLoop
	var ping, pong *sim.Proc
	ping = e.Spawn("ping", func(p *sim.Proc) {
		l.loop(p, func() error {
			pong.Wake()
			p.Park()
			return nil
		})
	})
	pong = e.Spawn("pong", func(p *sim.Proc) {
		for {
			p.Park()
			ping.Wake()
		}
	})
	return l.measure(10_000, 100_000, func() { e.Run() })
}

// probeNoCSend: Network.Send of a 64-byte packet across routers to its
// delivery; each delivery sends the next packet.
func probeNoCSend() (probeResult, error) {
	e := sim.NewEngine()
	defer e.Shutdown()
	n := noc.New(e, noc.StarMesh{NumTiles: 4}, noc.DefaultConfig())
	left := 0
	n.Attach(3, noc.HandlerFunc(func(*noc.Packet) bool {
		if left > 0 {
			left--
			n.Send(n.NewPacket(0, 3, 64, nil))
		}
		return true
	}))
	return timed(20_000, 300_000, func(k int) error {
		left = k - 1
		n.Send(n.NewPacket(0, 3, 64, nil))
		e.Run()
		if left != 0 {
			return errNoProgress
		}
		return nil
	})
}

// dtuRig is two virtualized DTUs and a memory tile on one NoC.
type dtuRig struct {
	e      *sim.Engine
	d0, d1 *dtu.DTU
}

const (
	rigActA dtu.ActID = 1
	rigActB dtu.ActID = 2
	// rigPoll is how often a rig process polls its receive endpoint.
	rigPoll = sim.Microsecond
)

func newDTURig() (*dtuRig, error) {
	e := sim.NewEngine()
	net := noc.New(e, noc.StarMesh{NumTiles: 4}, noc.DefaultConfig())
	r := &dtuRig{e: e, d0: dtu.New(e, net, 0, sim.MHz(80), true), d1: dtu.New(e, net, 1, sim.MHz(80), true)}
	dtu.NewMemory(e, net, 2, mem.New(e, mem.DefaultConfig(1<<20)))
	r.d0.SetCurAct(rigActA)
	r.d1.SetCurAct(rigActB)
	err := errors.Join(
		r.d0.ConfigureLocal(10, dtu.SendEP(rigActA, 1, 20, 0x1234, 1, 256)),
		r.d0.ConfigureLocal(11, dtu.RecvEP(rigActA, 4, 256)),
		r.d1.ConfigureLocal(20, dtu.RecvEP(rigActB, 4, 256)),
		r.d0.ConfigureLocal(8, dtu.MemEP(rigActA, 2, 0, 1<<20, dtu.PermRW)),
	)
	if err != nil {
		e.Shutdown()
		return nil, err
	}
	return r, nil
}

// awaitFetch polls ep until a message arrives and fetches it.
func awaitFetch(p *sim.Proc, d *dtu.DTU, ep dtu.EpID) (int, *dtu.Message, error) {
	for !d.HasUnread(ep) {
		p.Sleep(rigPoll)
	}
	return d.Fetch(p, ep)
}

// probeDTUSendReply: one RPC over raw DTU commands: Send, then at the
// receiver Fetch and Reply, then at the sender Fetch and Ack.
func probeDTUSendReply() (probeResult, error) {
	r, err := newDTURig()
	if err != nil {
		return probeResult{}, err
	}
	defer r.e.Shutdown()
	var l simLoop
	req, resp := []byte("ping"), []byte("pong")
	r.e.Spawn("client", func(p *sim.Proc) {
		l.loop(p, func() error {
			if err := r.d0.Send(p, dtu.SendArgs{Ep: 10, Data: req, ReplyEp: 11, ReplyLabel: 1}); err != nil {
				return err
			}
			slot, _, err := awaitFetch(p, r.d0, 11)
			if err != nil {
				return err
			}
			return r.d0.Ack(p, 11, slot)
		})
	})
	r.e.Spawn("server", func(p *sim.Proc) {
		for {
			slot, _, err := awaitFetch(p, r.d1, 20)
			if err == nil {
				err = r.d1.Reply(p, 20, slot, resp, 0)
			}
			if err != nil {
				l.fail(p, err)
				return
			}
		}
	})
	return l.measure(2_000, 30_000, func() { r.e.Run() })
}

// probeDTURead: DTU.Read of 4 KiB from a memory endpoint, walking the
// region page by page.
func probeDTURead() (probeResult, error) {
	r, err := newDTURig()
	if err != nil {
		return probeResult{}, err
	}
	defer r.e.Shutdown()
	var l simLoop
	r.e.Spawn("reader", func(p *sim.Proc) {
		l.loop(p, func() error {
			_, err := r.d0.Read(p, 8, uint64(l.done%256)*dtu.PageSize, dtu.PageSize, 0)
			return err
		})
	})
	return l.measure(2_000, 50_000, func() { r.e.Run() })
}

// rpcShare hands the echo server's send gate to its client.
type rpcShare struct {
	sgate cap.Sel
	ready bool
}

// echoServer answers no-op requests forever. It delegates a send gate to
// the root (activity 1) through the share.
func echoServer(a *activity.Activity) {
	sh := a.Env["share"].(*rpcShare)
	rg, err := a.SysCreateRGate(4, 128)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rg)
	if err != nil {
		panic(err)
	}
	sg, err := a.SysCreateSGate(rg, 0, 1)
	if err != nil {
		panic(err)
	}
	if sh.sgate, err = a.SysDelegate(1, sg); err != nil {
		panic(err)
	}
	sh.ready = true
	for {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{2}, 0); err != nil {
			panic(err)
		}
	}
}

// rpcClient loops no-op calls through the delegated gate.
func rpcClient(a *activity.Activity, l *simLoop, sgate cap.Sel) {
	sgEp, err := a.SysActivate(sgate)
	if err != nil {
		l.fail(a.Proc(), err)
		return
	}
	rg, err := a.SysCreateRGate(2, 128)
	if err != nil {
		l.fail(a.Proc(), err)
		return
	}
	rgEp, err := a.SysActivate(rg)
	if err != nil {
		l.fail(a.Proc(), err)
		return
	}
	l.loop(a.Proc(), func() error {
		_, err := a.Call(sgEp, rgEp, []byte{1})
		return err
	})
}

// awaitShare yields until the echo server has published its gate.
func awaitShare(a *activity.Activity, sh *rpcShare) {
	for !sh.ready {
		a.Compute(1000)
		a.Yield()
	}
}

// probeLocalRPC: a same-tile no-op Activity.Call on the FPGA platform:
// request and reply each need a TileMux switch.
func probeLocalRPC() (probeResult, error) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	tile := sys.Cfg.ProcessingTiles()[1]
	var l simLoop
	sh := &rpcShare{}
	sys.SpawnRoot(tile, "client", nil, func(a *activity.Activity) {
		if _, err := a.Spawn(core.TileSels(a)[tile], tile, "server",
			map[string]interface{}{"share": sh}, echoServer); err != nil {
			l.fail(a.Proc(), err)
			return
		}
		awaitShare(a, sh)
		rpcClient(a, &l, sh.sgate)
	})
	return l.measure(200, 3_000, runSystem(sys))
}

// probeNoopSyscall: Activity.SysNoop, a round trip to the controller.
func probeNoopSyscall() (probeResult, error) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	var l simLoop
	sys.SpawnRoot(sys.Cfg.ProcessingTiles()[1], "caller", nil, func(a *activity.Activity) {
		l.loop(a.Proc(), a.SysNoop)
	})
	return l.measure(200, 5_000, runSystem(sys))
}

// probeM3xSlowRPC: a same-tile RPC on the M3x baseline. The recipient is
// never running when its message arrives, so each leg is forwarded
// through the controller, which also switches the tile remotely.
func probeM3xSlowRPC() (probeResult, error) {
	sys := core.New(core.Gem5Config(2).WithM3x())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	rootTile, work := procs[0], procs[1]
	var l simLoop
	sh := &rpcShare{}
	sys.SpawnRoot(rootTile, "root", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		if _, err := a.Spawn(tiles[work], work, "server",
			map[string]interface{}{"share": sh}, echoServer); err != nil {
			l.fail(a.Proc(), err)
			return
		}
		awaitShare(a, sh)
		var cliGate cap.Sel // the client's copy of the server's gate
		cli, err := a.Spawn(tiles[work], work, "client", nil, func(c *activity.Activity) {
			for cliGate == 0 {
				c.Compute(1000)
				c.Yield()
			}
			rpcClient(c, &l, cliGate)
		})
		if err != nil {
			l.fail(a.Proc(), err)
			return
		}
		sel, err := a.SysDelegate(cli.ID, sh.sgate)
		if err != nil {
			l.fail(a.Proc(), err)
			return
		}
		cliGate = sel
		if _, err := a.SysWait(cli.ActSel); err != nil {
			l.fail(a.Proc(), err)
		}
	})
	return l.measure(100, 1_500, runSystem(sys))
}

// probeM3fsRead: a 4 KiB m3fs client read from a 1 MiB file on a file
// server on another tile, rewinding at end of file.
func probeM3fsRead() (probeResult, error) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	var l simLoop
	sys.SpawnRoot(procs[0], "reader", nil, func(a *activity.Activity) {
		f, err := m3fsFile(a, procs[1])
		if err != nil {
			l.fail(a.Proc(), err)
			return
		}
		buf := make([]byte, 4096)
		l.loop(a.Proc(), func() error {
			_, err := f.Read(buf)
			if errors.Is(err, io.EOF) {
				if err = f.Seek(0); err == nil {
					_, err = f.Read(buf)
				}
			}
			return err
		})
	})
	return l.measure(500, 10_000, runSystem(sys))
}

// m3fsFile starts a file server on tile fsTile, writes a 1 MiB file, and
// opens it for reading.
func m3fsFile(a *activity.Activity, fsTile noc.TileID) (*m3fs.File, error) {
	if _, err := m3fs.Spawn(a, core.TileSels(a)[fsTile], fsTile, 16<<20); err != nil {
		return nil, err
	}
	c, err := m3fs.NewClient(a)
	if err != nil {
		return nil, err
	}
	w, err := c.Open("/probe.bin", m3fs.FlagW|m3fs.FlagCreate)
	if err != nil {
		return nil, err
	}
	chunk := make([]byte, 4096)
	for i := 0; i < 256; i++ {
		if _, err := w.Write(chunk); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return c.Open("/probe.bin", m3fs.FlagR)
}

// probeCoreBoot: core.New(FPGAConfig()) plus Shutdown. No warm-up: a
// serve-mix miss pays a cold boot every time.
func probeCoreBoot() (probeResult, error) {
	return timed(0, 30, func(k int) error {
		for i := 0; i < k; i++ {
			core.New(core.FPGAConfig()).Shutdown()
		}
		return nil
	})
}

// probeServeHit: Handler().ServeHTTP of a cached fig6 request, without a
// socket.
func probeServeHit() (probeResult, error) {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	const body = `{"experiment":"fig6"}`
	post := func(want string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
			return fmt.Errorf("serve.hit: status %d X-Cache %q, want 200 %q", rec.Code, rec.Header().Get("X-Cache"), want)
		}
		return nil
	}
	if err := post("miss"); err != nil {
		return probeResult{}, err
	}
	return timed(500, 5_000, func(k int) error {
		for i := 0; i < k; i++ {
			if err := post("hit"); err != nil {
				return err
			}
		}
		return nil
	})
}
