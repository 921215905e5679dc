package core

import (
	"runtime"
	"slices"
	"testing"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/sim"
)

// opGate runs an activity's operation in steps: the activity loops op and
// parks the engine whenever it reached the target, so a test can drive a
// warm system one batch of operations at a time.
type opGate struct {
	done, target int
}

func (g *opGate) loop(t *testing.T, a *activity.Activity, op func() error) {
	p := a.Proc()
	for {
		for g.done >= g.target {
			p.Engine().Stop()
			p.Sleep(0)
		}
		if err := op(); err != nil {
			t.Errorf("operation %d: %v", g.done, err)
			p.Engine().Stop()
			return
		}
		g.done++
	}
}

// allocsPerOp warms the system up, then reports the mean allocations of
// one operation over batches of ops operations.
func (g *opGate) allocsPerOp(t *testing.T, sys *System, ops int) float64 {
	step := func() {
		g.target += ops
		sys.Run(60 * sim.Second)
		if g.done != g.target {
			t.Fatalf("%d of %d operations done", g.done, g.target)
		}
	}
	for i := 0; i < 10; i++ {
		step() // boot, and warm pools, queues and buffers
	}
	return testing.AllocsPerRun(20, step) / float64(ops)
}

// TestNoopSyscallAllocs guards the syscall path end to end, as perfbench's
// kernel.noop_syscall probe measures it: a warm no-op syscall allocates
// nothing. The request is built in the activity's writer, the DTU copies
// it into its pooled command and then into the controller's receive slot,
// the controller parses it in place and answers from its own writer, and
// the reply lands in the activity's reply buffer.
func TestNoopSyscallAllocs(t *testing.T) {
	sys := New(FPGAConfig())
	defer sys.Shutdown()
	var g opGate
	sys.SpawnRoot(sys.Cfg.ProcessingTiles()[1], "caller", nil, func(a *activity.Activity) {
		g.loop(t, a, a.SysNoop)
	})
	if avg := g.allocsPerOp(t, sys, 20); avg > 0 {
		t.Errorf("no-op syscall: %.2f allocs per call, want 0", avg)
	}
}

// TestM3xSlowRPCAllocs guards the M³x slow path, as perfbench's
// m3x.slow_rpc probe measures it: client and server share a tile, so each
// request and each reply reaches a switched-out recipient through the
// controller's Forward syscall and a remote context switch. A warm call
// allocates nothing: the forwarded payload is a view of the syscall
// message until the controller's DTU copies it, the saved receive slots
// keep their buffers, and the pending-switch queue shifts in place.
func TestM3xSlowRPCAllocs(t *testing.T) {
	sys := New(Gem5Config(2).WithM3x())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	rootTile, work := procs[0], procs[1]
	var g opGate
	var srvGate, cliGate cap.Sel
	sys.SpawnRoot(rootTile, "root", nil, func(a *activity.Activity) {
		tiles := TileSels(a)
		_, err := a.Spawn(tiles[work], work, "server", nil, func(s *activity.Activity) {
			rg, err := s.SysCreateRGate(4, 128)
			must(t, err)
			rgEp, err := s.SysActivate(rg)
			must(t, err)
			sg, err := s.SysCreateSGate(rg, 0, 1)
			must(t, err)
			srvGate, err = s.SysDelegate(a.ID, sg)
			must(t, err)
			for {
				slot, msg := s.Recv(rgEp)
				must(t, s.ReplyMsg(rgEp, slot, msg, []byte{2}, 0))
			}
		})
		must(t, err)
		for srvGate == 0 {
			a.Compute(1000)
			a.Yield()
		}
		cli, err := a.Spawn(tiles[work], work, "client", nil, func(c *activity.Activity) {
			for cliGate == 0 {
				c.Compute(1000)
				c.Yield()
			}
			sgEp, err := c.SysActivate(cliGate)
			must(t, err)
			rg, err := c.SysCreateRGate(2, 128)
			must(t, err)
			rgEp, err := c.SysActivate(rg)
			must(t, err)
			g.loop(t, c, func() error {
				_, err := c.Call(sgEp, rgEp, []byte{1})
				return err
			})
		})
		must(t, err)
		cliGate, err = a.SysDelegate(cli.ID, srvGate)
		must(t, err)
		_, err = a.SysWait(cli.ActSel)
		must(t, err)
	})
	if avg := g.allocsPerOp(t, sys, 5); avg > 0 {
		t.Errorf("M³x slow RPC: %.2f allocs per call, want 0", avg)
	}
}

// bootBytesMax bounds the bytes one FPGA platform allocates to boot and
// shut down. The endpoint register files, the histogram grids and DRAM are
// allocated on first use, so a boot pays for the endpoints and instruments
// it configures, not for every register and sketch cell of every tile.
const bootBytesMax = 160 << 10

// TestBootBytes guards the boot footprint that m3vd pays for every fresh
// request: the median TotalAlloc of core.New(FPGAConfig()) plus Shutdown
// must stay within bootBytesMax.
func TestBootBytes(t *testing.T) {
	boot := func() { New(FPGAConfig()).Shutdown() }
	boot() // first-use allocations of the runtime and of package state
	var runs []uint64
	for i := 0; i < 9; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		boot()
		runtime.ReadMemStats(&after)
		runs = append(runs, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(runs)
	if got := runs[len(runs)/2]; got > bootBytesMax {
		t.Errorf("FPGA boot allocates %d bytes (median of %d), want at most %d", got, len(runs), bootBytesMax)
	} else {
		t.Logf("FPGA boot allocates %d bytes (median of %d), bound %d", got, len(runs), bootBytesMax)
	}
}

// must panics on a failed setup step; the panic surfaces from Run.
func must(_ *testing.T, err error) {
	if err != nil {
		panic(err)
	}
}
