package tilemux

import "m3v/internal/sim"

// Core is a tile's core token: exactly one execution context (an activity or
// the tile's multiplexer) advances core time. The multiplexer has priority
// over activity contexts, modelling interrupts preempting user code at
// operation boundaries. TileMux and the M³x baseline's RCTMux both embed it.
type Core struct {
	busy bool
	q    sim.WaitQueue
	// muxWaiter is the multiplexer's process while it waits for the token;
	// a release hands the token to it before any queued activity.
	muxWaiter *sim.Proc
	// busyStart stamps the current hold.
	busyStart sim.Time
	// Idle holds the current activity while its wait for messages finds
	// nothing to do; the multiplexer wakes it when that may have changed.
	Idle sim.WaitQueue
}

// Acquire takes the token for p, parking until it is free. isMux marks the
// multiplexer's own process.
//
//m3v:noalloc
func (c *Core) Acquire(p *sim.Proc, isMux bool) {
	for c.busy || (!isMux && c.muxWaiter != nil) {
		if isMux {
			c.muxWaiter = p
			p.Park()
		} else {
			//m3vlint:ignore noalloc amortized growth: the wait queue's backing array is reused once it reached the tile's activity count
			c.q.Wait(p)
		}
	}
	if isMux {
		c.muxWaiter = nil
	}
	c.busy = true
	c.busyStart = p.Now()
}

// Release frees the token at now, wakes the next holder, and returns how
// long the token was held.
//
//m3v:noalloc
func (c *Core) Release(now sim.Time) sim.Time {
	c.busy = false
	if c.muxWaiter != nil {
		c.muxWaiter.Wake()
	} else {
		c.q.WakeOne()
	}
	return now - c.busyStart
}
