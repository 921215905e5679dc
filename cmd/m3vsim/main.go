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
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"m3v"
	"m3v/internal/fault"
	"m3v/internal/sim"
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
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
	flowsFile := fs.String("flows", "", "write the causal span streams as m3vflows JSON (analyze with m3vtrace)")
	metrics := fs.Bool("metrics", false, "print the metrics registry summary after the run")
	faultSeed := fs.Uint64("fault-seed", 1, "fault-injection schedule seed (with -fault-rate)")
	faultRate := fs.Float64("fault-rate", 0, "uniform fault-injection rate in [0,1] (0 disables injection)")
	traceHash := fs.Bool("trace-hash", false, "enable tracing and print the run's event and span hashes")
	sampleIvl := fs.String("sample-interval", "", "telemetry sampling interval in sim time (e.g. 100ns, 1us; empty disables sampling)")
	seriesFile := fs.String("series", "", "write sampled telemetry series to this file (JSON; a .csv suffix selects CSV long format)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on clean exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds must be >= 1, got %d", *rounds)
	}
	if *faultRate < 0 || *faultRate > 1 {
		return fmt.Errorf("-fault-rate must be in [0,1], got %g", *faultRate)
	}
	var sampleEvery sim.Time
	if *sampleIvl != "" {
		var err error
		sampleEvery, err = sim.ParseTime(*sampleIvl)
		if err != nil {
			return fmt.Errorf("-sample-interval: %w", err)
		}
	}
	if *seriesFile != "" && sampleEvery == 0 {
		return fmt.Errorf("-series requires -sample-interval")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	cfg := m3v.FPGA()
	if *gem5 {
		cfg = m3v.Gem5(4)
	}
	if *faultRate > 0 {
		cfg.Fault = fault.Uniform(*faultSeed, *faultRate)
	}
	if sampleEvery > 0 {
		cfg.Sample = m3v.SampleConfig{Interval: sampleEvery}
	}
	sys := m3v.NewSystem(cfg)
	defer sys.Shutdown()
	if *traceFile != "" || *flowsFile != "" || *traceHash {
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
			log.Fatalf("spawn: %v", err)
		}
		for !sh.ready {
			a.Compute(1000)
			a.Yield()
		}
		sgEp, err := a.SysActivate(sh.sgateSel)
		if err != nil {
			log.Fatalf("activate: %v", err)
		}
		rgSel, _ := a.SysCreateRGate(1, 64)
		rgEp, _ := a.SysActivate(rgSel)
		start := a.Now()
		for i := 0; i < *rounds; i++ {
			if _, err := a.Call(sgEp, rgEp, []byte{byte(i)}); err != nil {
				log.Fatalf("call %d: %v", i, err)
			}
		}
		perRPC = (a.Now() - start) / m3v.Time(*rounds)
	})
	end := sys.Run(60 * m3v.Second)

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
			*faultSeed, *faultRate, in.NoCDrops(), in.NoCDelays(), in.NoCDups(),
			in.CmdFails(), in.CmdRetries(), in.CmdGiveups(), in.MuxStalls())
	}
	rec := sys.Eng.Tracer()
	if *traceHash {
		fmt.Fprintf(out, "trace-hash: %#x span-hash: %#x\n", rec.Hash(), rec.SpanHash())
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := rec.WriteChrome(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "trace:    %d events -> %s\n", len(rec.Events()), *traceFile)
	}
	if *flowsFile != "" {
		f, err := os.Create(*flowsFile)
		if err != nil {
			return fmt.Errorf("flows: %w", err)
		}
		if err := trace.WriteFlows(f, []*trace.Recorder{rec}); err != nil {
			return fmt.Errorf("flows: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("flows: %w", err)
		}
		fmt.Fprintf(out, "flows:    %d spans -> %s\n", len(rec.Spans()), *flowsFile)
	}
	if *seriesFile != "" {
		sp := rec.Sampler()
		f, err := os.Create(*seriesFile)
		if err != nil {
			return fmt.Errorf("series: %w", err)
		}
		if strings.HasSuffix(*seriesFile, ".csv") {
			err = sp.WriteCSV(f)
		} else {
			err = trace.WriteSeries(f, []*trace.Recorder{rec})
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("series: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("series: %w", err)
		}
		fmt.Fprintf(out, "series:   %d ticks, %d series -> %s\n",
			sp.Samples(), len(sp.Series()), *seriesFile)
	}
	if *metrics {
		fmt.Fprintln(out)
		fmt.Fprint(out, rec.Summary())
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			return err
		}
	}
	return nil
}

// writeHeapProfile dumps the heap profile after a GC, so the file reflects
// live objects rather than garbage awaiting collection.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

func server(a *m3v.Activity) {
	sh := a.Env["share"].(*share)
	client := a.Env["client"].(uint32)
	rounds := a.Env["rounds"].(int)
	rgSel, err := a.SysCreateRGate(2, 64)
	if err != nil {
		log.Fatal(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		log.Fatal(err)
	}
	sgSel, err := a.SysCreateSGate(rgSel, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	delegated, err := a.SysDelegate(client, sgSel)
	if err != nil {
		log.Fatal(err)
	}
	sh.sgateSel = delegated
	sh.ready = true
	for i := 0; i < rounds; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{1}, 0); err != nil {
			log.Fatal(err)
		}
	}
}
