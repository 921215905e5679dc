package bench

import (
	"testing"

	"m3v/internal/sim"
)

// These tests pin the calibration of the cost model against the paper's
// Figure 6 anchors on the measurement the golden fig6 rows come from: on the
// 80 MHz BOOM cores, a cross-tile no-op RPC costs roughly a Linux no-op
// syscall (~2k cycles, ~25us), and a tile-local no-op RPC (two interrupts +
// two context switches) costs ~5k cycles (~60us).

func TestFig6RemoteRPCCalibration(t *testing.T) {
	mean := measureM3vRPC(Params{}, nil, false, fig6Rounds)
	t.Logf("remote no-op RPC: %v (%d cycles @80MHz)", mean, sim.MHz(80).CyclesIn(mean))
	// Paper: roughly a Linux syscall, ~2k cycles at 80 MHz (25us). Accept a
	// generous band around the anchor.
	if mean < 10*sim.Microsecond || mean > 45*sim.Microsecond {
		t.Errorf("remote RPC = %v, want 10-45us (paper anchor ~25us)", mean)
	}
}

func TestFig6LocalRPCCalibration(t *testing.T) {
	mean := measureM3vRPC(Params{}, nil, true, fig6Rounds)
	t.Logf("local no-op RPC: %v (%d cycles @80MHz)", mean, sim.MHz(80).CyclesIn(mean))
	// Paper: ~5k cycles at 80 MHz (~62us), several times the remote cost.
	if mean < 40*sim.Microsecond || mean > 95*sim.Microsecond {
		t.Errorf("local RPC = %v, want 40-95us (paper anchor ~62us)", mean)
	}
}

func TestFig6LocalCostsMoreThanRemote(t *testing.T) {
	remote, local := fig6M3v(Params{}, nil)
	if local <= remote {
		t.Errorf("local (%v) should cost more than remote (%v): it involves "+
			"two interrupts and two context switches", local, remote)
	}
	ratio := float64(local) / float64(remote)
	if ratio < 1.5 || ratio > 5 {
		t.Errorf("local/remote ratio = %.2f, want within [1.5, 5] (paper ~2.3)", ratio)
	}
}
