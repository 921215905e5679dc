// Package scenarios is the chaos test harness for the fault injector: it
// runs the RPC workloads of internal/rpcpair (Figure 6's pair and its
// co-located variant on M³x, which forces the forward slow path) under a
// fault config and reports an Outcome with everything the harness assertions need —
// completion, conservation counters, and the run's trace hash.
//
// The scenarios deliberately keep the NoC's MaxRetries at its default of 0
// (unbounded): injected drops then always retransmit, so a correct recovery
// path shows up as "all rounds served, sends == delivered" rather than as a
// tolerated loss. Determinism is asserted by running the same scenario twice
// with the same seed and comparing Hash.
package scenarios

import (
	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/rpcpair"
	"m3v/internal/sim"
)

// Outcome summarizes one chaos run.
type Outcome struct {
	// Completed reports that every root activity exited before the time
	// limit — the liveness verdict.
	Completed bool
	// SimTime is the simulated end time of the run.
	SimTime sim.Time
	// Hash is the run's trace hash; equal hashes mean bit-identical runs.
	Hash uint64

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
	o.Hash = rec.Hash()
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

// RunRPC runs Figure 6's RPC pair — a client calling an echo server,
// cross-tile or tile-local — under the given fault config and reports the
// outcome. A zero fc runs the perfect platform (the baseline for disabled ==
// baseline hash checks).
func RunRPC(shared bool, rounds int, fc fault.Config) Outcome {
	cfg := core.FPGAConfig()
	cfg.Fault = fc
	sys := core.New(cfg)
	defer sys.Shutdown()
	sys.Eng.Tracer().Enable()

	procs := sys.Cfg.ProcessingTiles()
	clientTile := procs[1] // first BOOM core, as in fig6
	pair := &rpcpair.Pair{Server: procs[2], Calls: rounds}
	if shared {
		pair.Server = clientTile
	}
	root := sys.SpawnRoot(clientTile, "client", nil, func(a *activity.Activity) {
		pair.Client(a, core.TileSels(a))
	})
	sys.Run(600 * sim.Second)

	var o Outcome
	o.Rounds = len(pair.Done)
	o.Completed = root.Done() && o.Rounds == rounds && pair.Served == rounds
	o.fill(sys)
	return o
}

// RunM3xForward runs the fig9-shaped M³x co-location under faults: a client
// and a server share one tile on the M³x baseline, so every RPC leg hits
// dtu.ErrNoRecipient and takes the controller forward slow path (the
// runtime's OpForward syscall → kernel.forward → remote switch). Dropped or
// delayed forward legs must be recovered by the retry machinery for the run
// to complete.
func RunM3xForward(rounds int, fc fault.Config) Outcome {
	cfg := core.Gem5Config(2).WithM3x()
	cfg.Fault = fc
	sys := core.New(cfg)
	defer sys.Shutdown()
	sys.Eng.Tracer().Enable()

	procs := sys.Cfg.ProcessingTiles()
	pair := &rpcpair.Colocated{Tile: procs[1], Calls: rounds}
	root := sys.SpawnRoot(procs[0], "root", nil, func(a *activity.Activity) {
		pair.Root(a, core.TileSels(a))
	})
	sys.Run(600 * sim.Second)

	var o Outcome
	o.Completed = root.Done() && pair.Replies == rounds
	o.Rounds = pair.Replies
	o.fill(sys)
	if sys.Driver != nil {
		o.Forwards = sys.Driver.Forwards
	}
	return o
}
