// m3vsim boots the simulated M³v platform, runs Figure 6's no-op RPC pair
// (internal/rpcpair) across tiles or, with -shared, on one tile, and dumps
// platform statistics — a smoke test for the whole stack.
//
//	m3vsim -rounds 100 -shared -trace out.json -metrics
//	m3vsim -rounds 10 -fault-seed 42 -fault-rate 0.05 -trace-hash
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"m3v"
	"m3v/internal/cliflags"
	"m3v/internal/rpcpair"
	"m3v/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "m3vsim: %v\n", err)
		}
		os.Exit(1)
	}
}

// run executes one simulation per the given command-line arguments, writing
// the report to out. Split from main for CLI tests.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("m3vsim", flag.ContinueOnError)
	rounds := fs.Int("rounds", 50, "number of RPC rounds")
	shared := fs.Bool("shared", false, "co-locate client and server on one tile")
	gem5 := fs.Bool("gem5", false, "use the 3 GHz gem5-style platform instead of the FPGA layout")
	traceHash := fs.Bool("trace-hash", false, "enable tracing and print the run's trace hash")
	obs := cliflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds must be >= 1, got %d", *rounds)
	}
	if err := obs.Validate(); err != nil {
		return err
	}
	stopProfile, err := cliflags.StartCPUProfile(obs.CPUProfile)
	if err != nil {
		return err
	}
	defer stopProfile()

	cfg := m3v.FPGA()
	if *gem5 {
		cfg = m3v.Gem5(4)
	}
	cfg.Fault = obs.Fault()
	cfg.SampleInterval = obs.SampleInterval()
	sys := m3v.NewSystem(cfg)
	defer sys.Shutdown()
	if obs.Events() || *traceHash {
		sys.Eng.Tracer().Enable()
	}
	procs := sys.Cfg.ProcessingTiles()
	clientTile := procs[0]
	serverTile := procs[1]
	if *shared {
		serverTile = clientTile
	}
	pair := &rpcpair.Pair{Server: serverTile, Calls: *rounds}
	sys.SpawnRoot(clientTile, "client", nil, func(a *m3v.Activity) {
		pair.Client(a, m3v.TileSels(a))
	})
	// A failing model panics, as do the client and server processes; the
	// panic surfaces from sys.Run and becomes the run's error.
	var end m3v.Time
	err = cliflags.Simulate(func() error {
		end = sys.Run(60 * m3v.Second)
		return nil
	})
	if err != nil {
		return err
	}

	mode := "remote (cross-tile fast path)"
	if *shared {
		mode = "local (core requests + TileMux switches)"
	}
	fmt.Fprintf(out, "platform: %s, %d processing tiles\n", sys.Cfg.Name, len(procs))
	fmt.Fprintf(out, "mode:     %s\n", mode)
	fmt.Fprintf(out, "rounds:   %d no-op RPCs\n", *rounds)
	fmt.Fprintf(out, "per RPC:  %v\n", pair.PerCall(0))
	fmt.Fprintf(out, "sim time: %v\n", end)
	fmt.Fprintf(out, "kernel syscalls: %d\n", sys.Kern.Syscalls())
	for _, tile := range procs {
		if mux := sys.Muxes[tile]; mux != nil && mux.CtxSwitches() > 0 {
			fmt.Fprintf(out, "tile %d: %d context switches, %d interrupts\n",
				tile, mux.CtxSwitches(), mux.Irqs())
		}
	}
	if in := sys.Fault; in != nil {
		fmt.Fprintf(out, "faults:   seed %d rate %g: %d drops, %d delays, %d dups, %d cmd fails, %d retries, %d giveups, %d stalls\n",
			obs.FaultSeed, obs.FaultRate, in.NoCDrops(), in.NoCDelays(), in.NoCDups(),
			in.CmdFails(), in.CmdRetries(), in.CmdGiveups(), in.MuxStalls())
	}
	rec := sys.Eng.Tracer()
	if *traceHash {
		fmt.Fprintf(out, "trace-hash: %#x\n", rec.Hash())
	}
	return obs.Export(out, []*trace.Recorder{rec})
}
