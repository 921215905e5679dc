//go:build go1.23

// The build constraint raises this file's language version to go1.23, the
// first release with iter.Pull, without bumping the module's go directive.

package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulation process: a coroutine whose execution is interleaved
// deterministically with the event loop. A process runs only between the
// engine's resume and its next call to Sleep, Park, or return.
//
// Methods on Proc must be called from the process itself (process context).
// Wake must be called from handler context or another process's context via
// the engine's event queue.
type Proc struct {
	e           *Engine
	name        string
	parked      bool // parked via Park, waiting for an explicit Wake
	wakePending bool // a wake event is already queued
	done        bool
	interrupted bool // Wake arrived while the process was not parked
	entered     bool // on the hand-off stack: switched into, not yet back
	idx         int  // position in the engine's procs list

	// next and stop drive the process's iter.Pull coroutine; yieldFn is the
	// coroutine's yield, captured when it starts. A dispatcher switches in
	// with next, yield switches back out, and Shutdown unwinds with stop.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool

	// resumeFn and wakeFn are the closures Sleep and Wake schedule. They
	// are built once at Spawn so the blocking hot paths (every Sleep, every
	// Park/Wake hand-off) schedule without allocating.
	resumeFn func()
	wakeFn   func()
}

// Spawn creates a process executing fn and schedules its start at the current
// time. fn runs in process context.
//
// A panic in fn leaves the active Run or RunUntil call with the original
// value; a process that was dispatching events when it entered this one
// recovers the panic, stays blocked, and RunUntil raises it again.
// runtime.Goexit in fn (t.Fatal in a test process) ends the goroutine that
// called Run, as iter.Pull propagates it through every coroutine below: the
// processes dispatching below this one on the hand-off stack (see
// Engine.dispatch) end with it. Either way each ended process is finished
// first: Done reports true and Live no longer counts it.
//
//m3v:simctx
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	if e.dead {
		panic("sim: Spawn after Shutdown")
	}
	p := &Proc{e: e, name: name, idx: len(e.procs)}
	p.resumeFn = func() { e.resume(p) }
	p.wakeFn = p.completeWake
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			p.done = true
			if e.dead {
				// Shutdown's unwind: swallow the sentinel raised by
				// yield. Shutdown drops the procs list itself.
				if r := recover(); r != nil {
					if _, ok := r.(shutdownError); !ok {
						panic(r)
					}
				}
				return
			}
			// Normal return, model panic or runtime.Goexit: leave the live
			// list before next hands the outcome to resume's caller.
			e.unregister(p)
		}()
		fn(p)
	})
	e.After(0, p.resumeFn)
	return p
}

// unregister swap-removes p from the live-process list.
func (e *Engine) unregister(p *Proc) {
	last := len(e.procs) - 1
	e.procs[p.idx] = e.procs[last]
	e.procs[p.idx].idx = p.idx
	e.procs[last] = nil
	e.procs = e.procs[:last]
}

// resume hands control to p: the dispatcher of the event that called it
// switches to p as soon as the event returns (see Engine.dispatch). It must
// run in handler context, and each event resumes at most one process.
//
//m3v:noalloc
func (e *Engine) resume(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: resume of finished process %q", p.name))
	}
	e.handoff = p
}

// block suspends the process until an event resumes it. Until then it
// dispatches events itself; it switches back down the hand-off stack when
// the resumed process lies below it or when the run ends, and returns when
// a dispatcher switches back into it. A dead engine dispatches nothing: a
// process blocking during Shutdown's unwind yields and is unwound in turn.
//
//m3v:noalloc
func (p *Proc) block() {
	e := p.e
	if !e.dead {
		e.dispatch(p)
		if e.handoff == p {
			e.handoff = nil
			return
		}
	}
	p.yield()
}

// yield switches back down to the dispatcher that entered the process and
// returns when a dispatcher switches into it again. Shutdown's stop makes
// the coroutine's yield report false; the process then unwinds with
// shutdownError, recovered by Spawn's wrapper.
//
//m3v:noalloc
func (p *Proc) yield() {
	//m3vlint:ignore noalloc coroutine switch: iter.Pull's yield swaps stacks back to the dispatcher and allocates nothing (TestSleepWakeAllocFree)
	if !p.yieldFn(struct{}{}) {
		panic(shutdownError{})
	}
}

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.e }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.e.now }

// Sleep suspends the process for d. A Wake during the sleep does not shorten
// it but is remembered and reported by the next Park (see Wake).
//
// Fast path: if the resume just scheduled is the next eligible event — no
// other component has anything to do before this process continues — the
// process consumes it on the spot and keeps running: a dispatch loop would
// pop it first and hand control straight back. On the fig9 workload most
// DTU command charges hit this path. The event counts in inlined, which
// sample ticks flush too, unlike the events a loop dispatches: the sampled
// sim.events_executed series depends on that split.
//
//m3v:noalloc
//m3v:simctx
func (p *Proc) Sleep(d Time) {
	e := p.e
	e.At(e.now+d, p.resumeFn)
	if m, ring := e.q.min(); m.seq == e.seq && m.at <= e.limit && !e.stopped.Load() && !e.dead {
		e.now = m.at
		e.q.pop(ring)
		e.inlined++
		return
	}
	p.block()
}

// Park suspends the process until another component calls Wake. If a Wake
// already arrived while the process was running (an "interrupt"), Park
// returns immediately and consumes it; this closes the lost-wakeup window.
//
//m3v:noalloc
//m3v:simctx
func (p *Proc) Park() {
	if p.interrupted {
		p.interrupted = false
		return
	}
	p.parked = true
	p.block()
}

// Wake schedules the process to resume at the current time. It may be called
// from handler context or from another process. Waking a process that is not
// parked sets its interrupt flag instead, so the wake-up is not lost.
// Duplicate wakes coalesce.
//
//m3v:noalloc
//m3v:simctx
func (p *Proc) Wake() {
	if p.done {
		return
	}
	if !p.parked {
		p.interrupted = true
		return
	}
	if p.wakePending {
		return
	}
	p.wakePending = true
	p.e.After(0, p.wakeFn)
}

// completeWake is the queued half of Wake, cached in wakeFn.
//
//m3v:noalloc
func (p *Proc) completeWake() {
	p.wakePending = false
	if !p.parked {
		// The process was already woken by someone else in the
		// meantime; remember the extra wake as an interrupt.
		p.interrupted = true
		return
	}
	p.parked = false
	p.e.resume(p)
}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// WaitQueue is a FIFO of parked processes, the building block for condition
// variables and resource queues inside the model.
type WaitQueue struct {
	procs []*Proc
}

// Wait appends the calling process to the queue and parks it. A Park that
// returns early, on a Wake that arrived while the process was running,
// leaves no stale entry behind to swallow a later WakeOne.
func (q *WaitQueue) Wait(p *Proc) {
	q.procs = append(q.procs, p)
	p.Park()
	q.Remove(p)
}

// WakeOne wakes the process at the head of the queue, if any, and reports
// whether a process was woken.
func (q *WaitQueue) WakeOne() bool {
	if len(q.procs) == 0 {
		return false
	}
	p := q.procs[0]
	copy(q.procs, q.procs[1:])
	q.procs[len(q.procs)-1] = nil
	q.procs = q.procs[:len(q.procs)-1]
	p.Wake()
	return true
}

// WakeAll wakes every queued process in FIFO order.
func (q *WaitQueue) WakeAll() {
	for q.WakeOne() {
	}
}

// Len reports the number of queued processes.
func (q *WaitQueue) Len() int { return len(q.procs) }

// Remove deletes p from the queue without waking it and reports whether it
// was present.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i, x := range q.procs {
		if x == p {
			copy(q.procs[i:], q.procs[i+1:])
			q.procs[len(q.procs)-1] = nil
			q.procs = q.procs[:len(q.procs)-1]
			return true
		}
	}
	return false
}
