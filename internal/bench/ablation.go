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
//     TLB once per command, at the price of one command per page on the
//     data path; we report that per-command overhead (the SEND cost).
func Ablations() *Result { return must(ablations(Params{}, nil)) }

// mediationCycles is the §3.5 trap charged on top of every unprivileged
// command: trap entry/exit, argument copy, endpoint-ownership validation in
// software, and the return.
const mediationCycles = 2200

func ablations(p Params, c *sim.Canceler) (*Result, error) {
	r := &Result{ID: "ablation", Title: "Design-choice ablations"}

	// The two measurements are independent systems; run them as sweep
	// points.
	pts := runPoints(2, func(i int) sim.Time {
		if i == 0 {
			return measureM3vRPC(p, c, false, 50)
		}
		return measureMediatedRPC(p, c, 50)
	})
	base, mediated := pts[0], pts[1]

	// --- 1: endpoint tagging vs TileMux mediation -----------------------
	r.Add("remote RPC, tagged endpoints", base.Micros(), "us", 25)
	r.Add("remote RPC, TileMux-mediated", mediated.Micros(), "us", 0)
	r.Add("mediation slowdown", float64(mediated)/float64(base), "x", 10)

	// --- 2: single-page transfer restriction ----------------------------
	r.Add("per-command overhead at 80MHz", sim.MHz(80).Cycles(dtu.SendCycles).Micros(), "us", 0)
	r.Note("paper §3.5: mediation cost is why activities use the vDTU directly")
	return finish(r, c)
}

// measureMediatedRPC measures a remote no-op RPC with TileMux mediation
// charged on every processing tile's vDTU.
func measureMediatedRPC(p Params, c *sim.Canceler, rounds int) sim.Time {
	sys := p.boot(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	for _, tile := range procs {
		sys.DTU(tile).SetMediation(mediationCycles)
	}
	return measureRPCOn(sys, procs[1], procs[2], rounds)
}
