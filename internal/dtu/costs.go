package dtu

import "m3v/internal/sim"

// The DTU timing model. Command costs are in cycles of the attached core's
// clock: they model the uncached MMIO register accesses (argument setup,
// command issue, status polling) that dominate command latency on the FPGA
// platform. DTU-internal work is in absolute time since the DTU runs in its
// own clock domain.
//
// The constants are calibrated against the paper's Figure 6 anchor points:
// a cross-tile no-op RPC costs about as much as a Linux no-op system call
// (~25 us on the 80 MHz BOOM core, i.e. ~2000 cycles), and a tile-local
// no-op RPC costs ~5k cycles.
const (
	SendCycles  int64 = 520 // SEND: 4 argument registers + issue + completion poll
	replyCycles int64 = 520 // REPLY: like SEND
	fetchCycles int64 = 280 // FETCH_MSG: issue + read result register
	ackCycles   int64 = 160 // ACK_MSG
	xferCycles  int64 = 300 // READ/WRITE issue + completion poll
	privCycles  int64 = 60  // privileged interface access (SWITCH_ACT, TLB, core reqs)

	procTime           = 300 * sim.Nanosecond // DTU command/packet processing (FSM traversal)
	xferNsPer64B int64 = 10                   // cache-bus transfer cost, nanoseconds per 64 bytes
	irqLatency         = 100 * sim.Nanosecond // core-request interrupt injection latency
)

// xferTime reports the cache-bus cost for moving n payload bytes.
func xferTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	blocks := int64((n + 63) / 64)
	return sim.Time(blocks*xferNsPer64B) * sim.Nanosecond
}

// SetMediation charges cycles on top of every unprivileged command (SEND,
// REPLY, FETCH_MSG, ACK_MSG, READ/WRITE), modelling the first M³v design in
// which TileMux mediated each vDTU access (paper §3.5). Privileged commands
// are unaffected. A new DTU starts at 0.
func (d *DTU) SetMediation(cycles int64) { d.mediation = cycles }
