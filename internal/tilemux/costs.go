package tilemux

import "m3v/internal/sim"

// TileMux's timing model, in cycles of the tile's core clock or absolute
// time where noted. Calibrated together with the dtu command costs against
// the paper's Figure 6: a tile-local no-op RPC (two interrupts, two context
// switches, five vDTU commands) lands at ~5k cycles.
const (
	tmCallCycles    int64 = 220 // trap entry + dispatch + return (ecall path)
	ctxSwitchCycles int64 = 640 // register save/restore + address-space switch + SWITCH_ACT
	irqCycles       int64 = 300 // interrupt entry + core-request fetch/ack
	muxMsgCycles    int64 = 350 // handling one kernel/pager message inside TileMux

	timeslice    = 1 * sim.Millisecond   // round-robin timeslice
	computeChunk = 100 * sim.Microsecond // max uninterruptible compute quantum
)
