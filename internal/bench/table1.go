package bench

import (
	"fmt"
	"strings"

	"m3v/internal/complexity"
	"m3v/internal/sim"
)

// table1 reproduces Table 1: the area accounting of the vDTU and the cost
// of virtualizing it. The simulator cannot synthesize FPGA bitstreams; the
// numbers come from the structural hardware model in internal/complexity,
// whose point — the privileged interface adds ~6% logic and four registers
// — follows from the vDTU's structure. It simulates nothing, so it ignores
// its arguments and never fails.
func table1(Params, *sim.Canceler) (*Result, error) {
	r := newResult("table1")
	for _, c := range complexity.VDTU() {
		label := strings.Repeat("  ", c.Indent) + c.Name
		r.Add(label+" kLUTs", c.KLUTs, "kLUT", c.PaperKLUTs)
	}
	pct, regs := complexity.VirtualizationDelta()
	r.Add("virtualization logic delta", pct, "%", 6)
	r.Add("virtualization added registers", float64(regs), "regs", 4)
	r.Note("paper: BOOM 143.8 kLUTs, Rocket 46.6 kLUTs; the vDTU is 10.6%% / 32.6%% of a core")
	return r, nil
}

// sloc reproduces the §6.1 source-size comparison: the controller (11.5k
// SLOC Rust in the paper) versus TileMux (1.7k SLOC). We count the
// corresponding Go packages; the reproduced property is the ratio — the
// tile-local multiplexer is an order of magnitude smaller than the
// controller. It counts the module's source files, so it fails when they
// are not found (a binary run outside the module).
func sloc(Params, *sim.Canceler) (*Result, error) {
	controller, err := complexity.SLOC("internal/kernel", "internal/cap", "internal/proto")
	if err != nil {
		return nil, fmt.Errorf("counting source lines (run inside the module): %w", err)
	}
	tilemux, err := complexity.SLOC("internal/tilemux")
	if err != nil {
		return nil, fmt.Errorf("counting source lines (run inside the module): %w", err)
	}
	r := newResult("sloc")
	r.Add("controller", float64(controller), "SLOC", 11500)
	r.Add("TileMux", float64(tilemux), "SLOC", 1700)
	if tilemux > 0 {
		r.Add("controller/TileMux ratio", float64(controller)/float64(tilemux), "x", 6.8)
	}
	r.Note("paper: controller 11.5k SLOC Rust (900 unsafe), TileMux 1.7k (50 unsafe); NOVA ~9k C++")
	return r, nil
}
