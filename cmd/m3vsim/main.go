// m3vsim boots the simulated M³v platform, runs a demonstration workload
// (two activities exchanging RPCs across tiles, then sharing a tile), and
// dumps platform statistics — a smoke test for the whole stack.
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
	"m3v/internal/trace"
)

type share struct {
	sgateSel m3v.Sel
	ready    bool
}

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
	traceHash := fs.Bool("trace-hash", false, "enable tracing and print the run's event and span hashes")
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
	stopProfile, err := obs.StartCPUProfile()
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
	sh := &share{}

	var perRPC m3v.Time
	sys.SpawnRoot(clientTile, "client", nil, func(a *m3v.Activity) {
		tiles := m3v.TileSels(a)
		_, err := a.Spawn(tiles[serverTile], serverTile, "server",
			map[string]interface{}{"share": sh, "client": a.ID, "rounds": *rounds}, server)
		if err != nil {
			panic(fmt.Errorf("spawn: %w", err))
		}
		for !sh.ready {
			a.Compute(1000)
			a.Yield()
		}
		sgEp, err := a.SysActivate(sh.sgateSel)
		if err != nil {
			panic(fmt.Errorf("activate: %w", err))
		}
		rgSel, _ := a.SysCreateRGate(1, 64)
		rgEp, _ := a.SysActivate(rgSel)
		start := a.Now()
		for i := 0; i < *rounds; i++ {
			if _, err := a.Call(sgEp, rgEp, []byte{byte(i)}); err != nil {
				panic(fmt.Errorf("call %d: %w", i, err))
			}
		}
		perRPC = (a.Now() - start) / m3v.Time(*rounds)
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
	fmt.Fprintf(out, "per RPC:  %v\n", perRPC)
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
		fmt.Fprintf(out, "trace-hash: %#x span-hash: %#x\n", rec.Hash(), rec.SpanHash())
	}
	return obs.Export(out, []*trace.Recorder{rec})
}

func server(a *m3v.Activity) {
	sh := a.Env["share"].(*share)
	client := a.Env["client"].(uint32)
	rounds := a.Env["rounds"].(int)
	rgSel, err := a.SysCreateRGate(2, 64)
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
	delegated, err := a.SysDelegate(client, sgSel)
	if err != nil {
		panic(err)
	}
	sh.sgateSel = delegated
	sh.ready = true
	for i := 0; i < rounds; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{1}, 0); err != nil {
			panic(err)
		}
	}
}
