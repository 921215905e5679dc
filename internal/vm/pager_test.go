package vm_test

import (
	"bytes"
	"testing"

	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/sim"
	"m3v/internal/vm"
)

// TestDemandPagingEndToEnd runs the complete fault path: a paged child uses
// a heap buffer for a DTU send; the vDTU misses its TLB, TileMux faults to
// the pager, the pager maps through the controller, and the send succeeds.
func TestDemandPagingEndToEnd(t *testing.T) {
	sys := core.New(core.FPGAConfig())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	rootTile, pagerTile, childTile := procs[0], procs[1], procs[2]

	var delivered []byte
	root := sys.SpawnRoot(rootTile, "root", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		if _, err := vm.Spawn(a, tiles[pagerTile], pagerTile, 1<<20); err != nil {
			t.Errorf("spawn pager: %v", err)
			return
		}
		// The root receives the child's messages.
		rgSel, _ := a.SysCreateRGate(2, 256)
		rgEp, _ := a.SysActivate(rgSel)
		sgSel, _ := a.SysCreateSGate(rgSel, 0x5, 1)

		ref, err := vm.SpawnPaged(a, tiles[childTile], childTile, "paged-child",
			map[string]interface{}{"parent": a.ID, "sgate": sgSel}, pagedChild)
		if err != nil {
			t.Errorf("spawn paged child: %v", err)
			return
		}
		// Hand the child the send gate (delegate after it announces itself
		// is unnecessary: selector communicated via Env and delegated now).
		if _, err := a.SysDelegate(ref.ID, sgSel); err != nil {
			t.Errorf("delegate: %v", err)
			return
		}
		slot, msg := a.Recv(rgEp)
		delivered = bytes.Clone(msg.Data) // the view dies with the Ack
		a.AckMsg(rgEp, slot)
	})
	sys.Run(20 * sim.Second)
	if !root.Done() {
		t.Fatal("did not finish")
	}
	if string(delivered) != "paged hello" {
		t.Errorf("delivered = %q", delivered)
	}
	// The child tile must have taken at least one page fault.
	if pf := sys.Muxes[childTile].PageFaults(); pf < 1 {
		t.Errorf("page faults on child tile = %d, want >= 1", pf)
	}
}

func pagedChild(a *activity.Activity) {
	// The delegated sgate cap lands at the next selector in our table; the
	// parent delegates it right after start. Poll until it activates.
	var sgEp dtu.EpID
	for {
		ep, err := a.SysActivate(1) // first delegated cap => sel 1
		if err == nil {
			sgEp = ep
			break
		}
		a.Compute(1000)
		a.Yield()
	}
	// Send from a demand-paged heap buffer: triggers the full fault path.
	buf := a.Alloc(4096)
	if err := a.Send(sgEp, []byte("paged hello"), buf, -1, 0); err != nil {
		panic(err)
	}
}
