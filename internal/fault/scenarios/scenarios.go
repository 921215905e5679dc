// Package scenarios is the chaos test harness for the fault injector: it
// runs figure-shaped workloads (the fig6 RPC pair and the fig9-style M³x
// co-location that forces the forward slow path) under a fault config and
// reports an Outcome with everything the harness assertions need —
// completion, conservation counters, and the run's trace hashes.
//
// The scenarios deliberately keep the NoC's MaxRetries at its default of 0
// (unbounded): injected drops then always retransmit, so a correct recovery
// path shows up as "all rounds served, sends == delivered" rather than as a
// tolerated loss. Determinism is asserted by running the same scenario twice
// with the same seed and comparing EventHash/SpanHash.
package scenarios

import (
	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// Outcome summarizes one chaos run.
type Outcome struct {
	// Completed reports that every root activity exited before the time
	// limit — the liveness verdict.
	Completed bool
	// SimTime is the simulated end time of the run.
	SimTime sim.Time
	// EventHash and SpanHash are the run's trace hashes; equal hashes mean
	// bit-identical runs.
	EventHash uint64
	SpanHash  uint64

	// NoC conservation: every packet offered to the NoC must end up either
	// delivered or terminally dropped, and every injected ghost duplicate
	// must be discarded at its destination.
	Sends        int64
	Delivered    int64
	Dropped      int64
	DupInjected  int64
	DupDiscarded int64

	// Recovery activity observed during the run.
	DropsInjected int64
	CmdRetries    int64
	CmdGiveups    int64
	MuxStalls     int64

	// Rounds is the number of RPC rounds the client completed.
	Rounds int
	// Forwards counts M³x controller forwards (RunM3xForward only).
	Forwards int64
}

// Conserved reports whether the NoC packet-conservation invariants held:
// no packet vanished without being counted as delivered or dropped, and no
// ghost duplicate escaped its discard.
func (o Outcome) Conserved() bool {
	return o.Sends == o.Delivered+o.Dropped && o.DupInjected == o.DupDiscarded
}

// settleSteps bounds how long settle runs a finished system on, in 1 µs
// steps: far longer than any packet's NoC latency plus retry backoff.
const settleSteps = 1000

// settle runs a finished system on until no packet is on the wire. The last
// root's exit stops the engine at once, and a packet still in flight then is
// neither delivered nor dropped yet, so conservation is checked at
// quiescence rather than at that instant.
func settle(sys *core.System) {
	for i := 0; i < settleSteps && sys.Net.InFlight() > 0; i++ {
		sys.Run(sim.Microsecond)
	}
}

// fill populates the counter fields from a finished system, once its NoC
// settled.
func (o *Outcome) fill(sys *core.System) {
	rec := sys.Eng.Tracer()
	o.SimTime = sys.Eng.Now()
	settle(sys)
	o.EventHash = rec.Hash()
	o.SpanHash = rec.SpanHash()
	o.Delivered = sys.Net.Delivered()
	o.Dropped = sys.Net.Dropped()
	in := sys.Fault
	o.Sends = in.NoCSends()
	o.DupInjected = in.NoCDups()
	o.DupDiscarded = in.NoCDupDiscards()
	o.DropsInjected = in.NoCDrops()
	o.CmdRetries = in.CmdRetries()
	o.CmdGiveups = in.CmdGiveups()
	o.MuxStalls = in.MuxStalls()
	if !in.Enabled() {
		// Fault-free baseline run: count raw NoC sends for conservation via
		// the network's own counters (sends == delivered + dropped is then
		// trivially checked against delivered alone).
		o.Sends = sys.Net.Delivered() + sys.Net.Dropped()
	}
}

// rpcShare coordinates the RPC scenario programs.
type rpcShare struct {
	sgateSel cap.Sel
	ready    bool
	served   int
}

// RunRPC runs the fig6-shaped RPC workload — a client calling an echo
// server, cross-tile or tile-local — under the given fault config and
// reports the outcome. A zero fc runs the perfect platform (the baseline
// for disabled == baseline hash checks).
func RunRPC(shared bool, rounds int, fc fault.Config) Outcome {
	cfg := core.FPGAConfig()
	cfg.Fault = fc
	sys := core.New(cfg)
	defer sys.Shutdown()
	sys.Eng.Tracer().Enable()

	procs := sys.Cfg.ProcessingTiles()
	clientTile := procs[1] // first BOOM core, as in fig6
	serverTile := procs[2]
	if shared {
		serverTile = clientTile
	}

	share := &rpcShare{}
	done := 0
	root := sys.SpawnRoot(clientTile, "chaos-client", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		_, err := a.Spawn(tiles[serverTile], serverTile, "chaos-server",
			map[string]interface{}{"share": share, "rounds": rounds}, chaosEchoServer)
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
		rgSel, err := a.SysCreateRGate(1, 64)
		if err != nil {
			panic(err)
		}
		rgEp, err := a.SysActivate(rgSel)
		if err != nil {
			panic(err)
		}
		for i := 0; i < rounds; i++ {
			if _, err := a.Call(sgEp, rgEp, []byte{byte(i)}); err != nil {
				panic(err)
			}
			done++
		}
	})
	sys.Run(600 * sim.Second)

	var o Outcome
	o.Completed = root.Done() && done == rounds && share.served == rounds
	o.Rounds = done
	o.fill(sys)
	return o
}

// chaosEchoServer answers the scenario client's requests.
func chaosEchoServer(a *activity.Activity) {
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
	for i := 0; i < rounds; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{2}, 0); err != nil {
			panic(err)
		}
		share.served++
	}
}

// m3xShare coordinates the M³x forward scenario programs.
type m3xShare struct {
	rootSgateSel cap.Sel
	cliSgateSel  cap.Sel
	ready        bool
	replies      int
}

// RunM3xForward runs the fig9-shaped M³x co-location workload under faults:
// a client and a server share one tile on the M³x baseline, so every RPC
// leg hits dtu.ErrNoRecipient and takes the controller forward slow path
// (SlowSend → kernel.forward → remote switch). Dropped or delayed forward
// legs must be recovered by the retry machinery for the run to complete.
func RunM3xForward(rounds int, fc fault.Config) Outcome {
	cfg := core.Gem5Config(2).WithM3x()
	cfg.Fault = fc
	sys := core.New(cfg)
	defer sys.Shutdown()
	sys.Eng.Tracer().Enable()

	procs := sys.Cfg.ProcessingTiles()
	rootTile, workTile := procs[0], procs[1]

	sh := &m3xShare{}
	root := sys.SpawnRoot(rootTile, "chaos-root", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		srvRef, err := a.Spawn(tiles[workTile], workTile, "server",
			map[string]interface{}{"share": sh, "rounds": rounds, "root": a.ID}, m3xChaosServer)
		if err != nil {
			panic(err)
		}
		for !sh.ready {
			a.Compute(1000)
			a.Yield()
		}
		cliRef, err := a.Spawn(tiles[workTile], workTile, "client",
			map[string]interface{}{"share": sh, "rounds": rounds}, m3xChaosClient)
		if err != nil {
			panic(err)
		}
		sel, err := a.SysDelegate(cliRef.ID, sh.rootSgateSel)
		if err != nil {
			panic(err)
		}
		sh.cliSgateSel = sel
		if _, err := a.SysWait(cliRef.ActSel); err != nil {
			panic(err)
		}
		if _, err := a.SysWait(srvRef.ActSel); err != nil {
			panic(err)
		}
	})
	sys.Run(600 * sim.Second)

	var o Outcome
	o.Completed = root.Done() && sh.replies == rounds
	o.Rounds = sh.replies
	o.fill(sys)
	if sys.Driver != nil {
		o.Forwards = sys.Driver.Forwards
	}
	return o
}

func m3xChaosServer(a *activity.Activity) {
	sh := a.Env["share"].(*m3xShare)
	rounds := a.Env["rounds"].(int)
	rootID := a.Env["root"].(uint32)
	rgSel, err := a.SysCreateRGate(4, 128)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		panic(err)
	}
	sgSel, err := a.SysCreateSGate(rgSel, 0xAB, 2)
	if err != nil {
		panic(err)
	}
	rootSel, err := a.SysDelegate(rootID, sgSel)
	if err != nil {
		panic(err)
	}
	sh.rootSgateSel = rootSel
	sh.ready = true
	for i := 0; i < rounds; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, append([]byte("re:"), msg.Data...), 0); err != nil {
			panic(err)
		}
	}
}

func m3xChaosClient(a *activity.Activity) {
	sh := a.Env["share"].(*m3xShare)
	rounds := a.Env["rounds"].(int)
	for sh.cliSgateSel == 0 {
		a.Compute(1000)
		a.Yield()
	}
	rgSel, err := a.SysCreateRGate(2, 128)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		panic(err)
	}
	sgEp, err := a.SysActivate(sh.cliSgateSel)
	if err != nil {
		panic(err)
	}
	for i := 0; i < rounds; i++ {
		resp, err := a.Call(sgEp, rgEp, []byte{byte(i)})
		if err != nil {
			panic(err)
		}
		if len(resp) == 4 && resp[3] == byte(i) {
			sh.replies++
		}
	}
}
