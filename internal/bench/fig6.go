package bench

import (
	"errors"
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/core"
	"m3v/internal/linuxos"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// rpcShare coordinates the RPC benchmark programs.
type rpcShare struct {
	sgateSel cap.Sel
	ready    bool
}

// fig6Rounds is the number of timed RPCs or primitives per Figure 6 point
// (paper §6.2: 1000 runs with a warm system; we use fewer repetitions since
// the simulation is deterministic).
const fig6Rounds = 100

// measureM3vRPC times no-op RPCs between two activities, tile-local or
// cross-tile, on BOOM cores.
func measureM3vRPC(p Params, c *sim.Canceler, sameTile bool, rounds int) sim.Time {
	sys := p.boot(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	clientTile := procs[1] // first BOOM core
	serverTile := procs[2]
	if sameTile {
		serverTile = clientTile
	}
	return measureRPCOn(sys, clientTile, serverTile, rounds)
}

// measureRPCOn runs the RPC measurement on a prebuilt system (the ablation
// arms DTU mediation before calling it).
func measureRPCOn(sys *core.System, clientTile, serverTile noc.TileID, rounds int) sim.Time {
	share := &rpcShare{}
	var total sim.Time
	sys.SpawnRoot(clientTile, "client", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		_, err := a.Spawn(tiles[serverTile], serverTile, "server",
			map[string]interface{}{"share": share, "rounds": rounds}, rpcEchoServer)
		if err != nil {
			panic(err)
		}
		for !share.ready {
			a.Compute(1000)
			a.Yield()
		}
		sgEp, err := a.SysActivate(share.sgateSel)
		if err != nil {
			panic(err)
		}
		rgSel, _ := a.SysCreateRGate(1, 64)
		rgEp, _ := a.SysActivate(rgSel)
		if _, err := a.Call(sgEp, rgEp, []byte{0}); err != nil { // warmup
			panic(err)
		}
		start := a.Now()
		for i := 0; i < rounds; i++ {
			if _, err := a.Call(sgEp, rgEp, []byte{1}); err != nil {
				panic(err)
			}
		}
		total = a.Now() - start
	})
	sys.Run(60 * sim.Second)
	return total / sim.Time(rounds)
}

// rpcEchoServer answers rounds+1 no-op requests (one warmup).
func rpcEchoServer(a *activity.Activity) {
	share := a.Env["share"].(*rpcShare)
	rounds := a.Env["rounds"].(int)
	rgSel, err := a.SysCreateRGate(1, 64)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		panic(err)
	}
	sgSel, err := a.SysCreateSGate(rgSel, 0, 1)
	if err != nil {
		panic(err)
	}
	delegated, err := a.SysDelegate(1, sgSel) // the root is activity 1
	if err != nil {
		panic(err)
	}
	share.sgateSel = delegated
	share.ready = true
	for i := 0; i < rounds+1; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{2}, 0); err != nil {
			panic(fmt.Sprintf("rpc server reply: %v", err))
		}
	}
}

// measureLinuxSyscall times no-op system calls on the Linux model.
func measureLinuxSyscall(c *sim.Canceler, rounds int) sim.Time {
	eng := linuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	var per sim.Time
	m.Spawn("syscall", func(p *linuxos.Proc) {
		p.SyscallNoop() // warmup
		start := p.Now()
		for i := 0; i < rounds; i++ {
			p.SyscallNoop()
		}
		per = (p.Now() - start) / sim.Time(rounds)
	})
	eng.RunUntil(60 * sim.Second)
	return per
}

// measureLinuxYield2 times two yields between two processes (the paper's
// analogue of a tile-local RPC: two context switches).
func measureLinuxYield2(c *sim.Canceler, rounds int) sim.Time {
	eng := linuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	var per sim.Time
	m.Spawn("a", func(p *linuxos.Proc) {
		p.Yield() // warmup
		start := p.Now()
		for i := 0; i < rounds; i++ {
			p.Yield() // switch to b and eventually back: 2 switches/round
		}
		per = (p.Now() - start) / sim.Time(rounds)
	})
	m.Spawn("b", func(p *linuxos.Proc) {
		for i := 0; i < rounds+2; i++ {
			p.Yield()
		}
	})
	eng.RunUntil(60 * sim.Second)
	return per
}

// fig6M3v measures the M³v half of Figure 6, the cross-tile and the
// tile-local no-op RPC. The figure and the served fig6 both run it.
func fig6M3v(p Params, c *sim.Canceler) (remote, local sim.Time) {
	pts := runPoints(2, func(i int) sim.Time {
		return measureM3vRPC(p, c, i == 1, fig6Rounds)
	})
	return pts[0], pts[1]
}

// Fig6 reproduces Figure 6: local/remote communication on M³v and the
// corresponding Linux primitives. Values in microseconds on 80 MHz BOOM
// cores; the paper's anchors are ~25us for both the Linux no-op syscall and
// the M³v remote RPC, ~5k cycles (~62us) for the tile-local RPC.
func Fig6() *Result { return must(fig6(Params{}, nil)) }

func fig6(p Params, c *sim.Canceler) (*Result, error) {
	r := &Result{ID: "fig6", Title: "Local/remote no-op RPC vs Linux primitives"}
	clk := sim.MHz(80)
	remote, local := fig6M3v(p, c)
	linux := runPoints(2, func(i int) sim.Time {
		if i == 0 {
			return measureLinuxSyscall(c, fig6Rounds)
		}
		return measureLinuxYield2(c, fig6Rounds)
	})
	syscall, yield2 := linux[0], linux[1]
	r.Add("Linux yield (2x)", yield2.Micros(), "us", 55)
	r.Add("Linux syscall", syscall.Micros(), "us", 25)
	r.Add("M3v local", local.Micros(), "us", 62)
	r.Add("M3v remote", remote.Micros(), "us", 25)
	r.Add("M3v local (cycles)", float64(clk.CyclesIn(local)), "cycles", 5000)
	r.Add("M3v remote (cycles)", float64(clk.CyclesIn(remote)), "cycles", 2000)
	r.Note("shape: remote RPC ~ Linux syscall; local RPC ~ Linux 2x yield, several times remote")
	return finish(r, c)
}

// serveFig6 is the served fig6: the M³v rows only (the Linux-model rows are
// CLI-only). Tiles is ignored: the topology is the fixed FPGA platform.
func serveFig6(p Params, c *sim.Canceler) (*Result, error) {
	remote, local := fig6M3v(p, c)
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	if remote <= 0 || local <= 0 {
		// Anything but a cancellation producing zero is a broken
		// measurement.
		return nil, errors.New("fig6: rpc measurement incomplete")
	}
	clk := sim.MHz(80)
	r := &Result{ID: "fig6", Title: "Local/remote no-op RPC vs Linux primitives"}
	r.Add("M3v remote", remote.Micros(), "us", 25)
	r.Add("M3v local", local.Micros(), "us", 62)
	r.Add("M3v remote (cycles)", float64(clk.CyclesIn(remote)), "cycles", 2000)
	r.Add("M3v local (cycles)", float64(clk.CyclesIn(local)), "cycles", 5000)
	return r, nil
}
