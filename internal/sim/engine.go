package sim

import (
	"fmt"
	"sync/atomic"

	"m3v/internal/trace"
)

// event is a scheduled callback. Events with equal timestamps execute in
// insertion order (seq), which makes the simulation fully deterministic.
//
// Events are stored by value: the queues never allocate per event, only when
// their backing arrays grow. This is the engine's hottest path — every DTU
// command, NoC packet, and context switch schedules at least one event.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

//m3v:noalloc
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts an event into a 4-ary min-heap ordered by (at, seq).
// 4-ary beats binary here because sift-down does 3/4 fewer levels at slightly
// more comparisons per level, and the four children share a cache line (an
// event is 24 bytes).
//
//m3v:noalloc
func heapPush(hp *[]event, ev event) {
	//m3vlint:ignore noalloc backing array growth is amortized; steady state reuses capacity (see BenchmarkEngineSchedule alloc guard)
	h := append(*hp, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !evLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*hp = h
}

// heapPop removes and returns the minimum heap event.
//
//m3v:noalloc
func heapPop(hp *[]event) event {
	h := *hp
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release the closure for GC
	h = h[:last]
	*hp = h
	// Sift down in the 4-ary heap.
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		min := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if evLess(&h[c], &h[min]) {
				min = c
			}
		}
		if !evLess(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// ringBuf is a circular FIFO for events scheduled at exactly the current
// time (After(0): process resumes, wakes, IRQ injection). These need no
// ordering structure at all — they run after every already-queued event with
// the same timestamp (which must have a smaller seq) and among themselves in
// insertion order, which the FIFO provides for free.
//
// The invariant making the ring sound: an event enters the ring only with
// at == now, and the clock only advances when the rest of the queue has
// nothing left at now, so every non-ring event with at == now was pushed
// before any current ring event and therefore has a smaller seq.
type ringBuf struct {
	buf  []event // circular buffer, len is a power of two
	head int     // read position
	n    int     // occupancy
}

// push appends an event scheduled at the current time. Growth lives in grow,
// which is deliberately left un-annotated: it is the amortized cold path.
//
//m3v:noalloc
func (r *ringBuf) push(ev event) {
	if r.n == len(r.buf) {
		//m3vlint:ignore noalloc amortized cold path: growth doubles capacity, steady state never enters this branch
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *ringBuf) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	grown := make([]event, size)
	for i := 0; i < r.n; i++ {
		grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = grown
	r.head = 0
}

//m3v:noalloc
func (r *ringBuf) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release the closure for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// pop status codes reported by popLimit.
const (
	popOK     = iota // an event at or before the limit was popped
	popEmpty         // the queue is empty
	popBeyond        // the next event lies beyond the limit
)

// totalExecuted counts events executed by every engine in the process. The
// bench harness reads it around experiments to report scheduler throughput
// (events_executed / events_per_sec in the m3vbench report); atomic
// because sweep points run engines on worker goroutines.
var totalExecuted atomic.Uint64

// TotalEventsExecuted reports the number of events executed across all
// engines of the process since start.
func TotalEventsExecuted() uint64 { return totalExecuted.Load() }

// Engine is a discrete-event simulation kernel. The zero value is not usable;
// construct with NewEngine.
//
// Model code runs in two contexts:
//
//   - handler context: event callbacks executed by the Run loop;
//   - process context: inside a coroutine started with Spawn, between the
//     engine's resume and the process's next blocking call.
//
// The engine guarantees that at most one of these is active at any moment:
// a process runs on an iter.Pull coroutine that the dispatch loop switches
// into and that switches straight back, without the Go scheduler, so the
// whole simulation advances as one thread of control.
type Engine struct {
	now   Time
	seq   uint64
	wq    wheelQueue
	dead  bool    // set by Shutdown; unwinds stopped processes
	procs []*Proc // spawned, not yet finished processes

	// stopped halts the active dispatch loop after the in-flight event.
	// Atomic: Stop and Cancel are the only engine entry points that may be
	// called from outside the simulation goroutine (server deadline and
	// client-disconnect handlers need exactly that), so the write must have
	// a happens-before edge to the loop's read.
	stopped atomic.Bool
	// cancelled is the sticky form of stopped: once set, enter() re-arms
	// stopped on every subsequent Run/RunUntil, so a cancelled engine stays
	// cancelled even if the cancel races the start of the next run.
	cancelled atomic.Bool
	running   bool
	limit     Time  // bound of the active dispatch loop (MaxTime for Run)
	inlined   int64 // events consumed by the Sleep fast path since last flush
	tracer    func(Time, string)

	rec    *trace.Recorder
	evExec *trace.Counter

	sampler     *trace.Sampler
	sampleEvery Time
	sampleFn    func() // cached recurring tick closure (scheduled without allocating)
}

// NewEngine returns a ready-to-use engine at time zero.
func NewEngine() *Engine {
	rec := trace.NewRecorder()
	e := &Engine{
		rec:    rec,
		evExec: rec.Metrics().Counter("sim.events_executed"),
	}
	e.wq.init()
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Seq reports the number of events scheduled so far. It advances on every
// At/After call, which makes it a deterministic, replayable progress marker:
// fault schedules key their pseudo-random decisions off (seed, Seq) so the
// same seed always replays the same fault pattern.
//
//m3v:noalloc
func (e *Engine) Seq() uint64 { return e.seq }

// Tracer returns the engine's structured event recorder (never nil). All
// components built on this engine share it: the recorder's metrics registry
// is always live, while the event stream is off until Tracer().Enable().
func (e *Engine) Tracer() *trace.Recorder { return e.rec }

// SetTracer installs a debug tracer invoked for engine-level events. A nil
// tracer disables tracing.
func (e *Engine) SetTracer(fn func(Time, string)) { e.tracer = fn }

func (e *Engine) trace(format string, args ...interface{}) {
	if e.tracer != nil {
		e.tracer(e.now, fmt.Sprintf(format, args...))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would violate causality. Steady-state scheduling is allocation-free:
// events are stored by value and the queues' arrays are reused across pops.
//
//m3v:noalloc
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now (%v)", t, e.now))
	}
	e.seq++
	e.wq.schedule(event{at: t, seq: e.seq, fn: fn}, e.now)
}

// After schedules fn to run d after the current time.
//
//m3v:noalloc
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Stop makes the Run loop return after the current event completes. Pending
// events remain queued; Run can be called again to continue. Safe to call
// from any goroutine: the flag is atomic, so an external caller (a deadline
// timer, a disconnect handler) synchronizes correctly with the dispatch
// loop. A Stop that lands while no loop is active is erased by the next
// Run/RunUntil; use Cancel for a stop that must survive that race.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Cancel permanently stops the engine: the active dispatch loop (if any)
// returns after the in-flight event, and every subsequent Run/RunUntil
// returns immediately without dispatching. Pending events stay queued and
// spawned processes stay parked; Shutdown still unwinds them. Safe to call
// from any goroutine — this is the cancellation entry point for code outside
// the simulation (server deadlines, client disconnects).
func (e *Engine) Cancel() {
	e.cancelled.Store(true)
	e.stopped.Store(true)
}

// Cancelled reports whether Cancel has been called.
func (e *Engine) Cancelled() bool { return e.cancelled.Load() }

// Run executes events until the queue is empty or Stop is called. It returns
// the simulated time at which it stopped. Unlike RunUntil, the dispatch loop
// carries no bound check at all: with the limit pinned at MaxTime every
// queued event is eligible, so the per-event "next beyond limit?" test of the
// bounded loop is dead weight and is skipped.
//
//m3v:noalloc
//m3v:simctx
func (e *Engine) Run() Time {
	e.enter()
	defer e.leave()
	e.limit = MaxTime
	var executed int64
	for !e.stopped.Load() {
		ev, ok := e.wq.popNext()
		if !ok {
			break
		}
		e.now = ev.at
		executed++
		//m3vlint:ignore noalloc audited dispatch slot: event callbacks are cached closures checked at their schedule sites
		ev.fn()
	}
	e.flush(executed)
	return e.now
}

// RunUntil executes events with timestamps <= limit, then returns. The
// engine's clock advances to the timestamp of the last executed event (or to
// limit if at least one event beyond it remains queued). The clock never
// moves backwards: a limit below the current time (for example after a Stop
// mid-run) leaves it where the last executed event put it.
//
//m3v:noalloc
//m3v:simctx
func (e *Engine) RunUntil(limit Time) Time {
	if limit == MaxTime {
		// "Run to completion" calls land here; take the unbounded loop,
		// which skips the per-event bound check entirely.
		return e.Run()
	}
	e.enter()
	defer e.leave()
	e.limit = limit
	var executed int64
	for !e.stopped.Load() {
		ev, st := e.wq.popLimit(limit)
		if st != popOK {
			if st == popBeyond && limit > e.now {
				e.now = limit
			}
			break
		}
		e.now = ev.at
		executed++
		//m3vlint:ignore noalloc audited dispatch slot: event callbacks are cached closures checked at their schedule sites
		ev.fn()
	}
	e.flush(executed)
	return e.now
}

//m3v:noalloc
func (e *Engine) enter() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	// A fresh loop clears a one-shot Stop but honors a sticky Cancel, even
	// one that raced the start of this run.
	e.stopped.Store(e.cancelled.Load())
}

//m3v:noalloc
func (e *Engine) leave() { e.running = false }

// flush publishes the dispatch loop's event count: once into the engine's
// metrics registry and once into the process-wide throughput total. Batched
// at loop exit instead of per event so the hot loop touches no counters.
// Events consumed by the Sleep fast path (popSelf) are folded in here, so
// events_executed counts them exactly as if the loop had dispatched them.
//
//m3v:noalloc
func (e *Engine) flush(executed int64) {
	executed += e.inlined
	e.inlined = 0
	if executed != 0 {
		e.evExec.Add(executed)
		totalExecuted.Add(uint64(executed))
	}
}

// popSelf is the Sleep self-resume fast path. The calling process has just
// scheduled its own resume as event seq; if that event is the queue's next
// eligible event (true (at, seq) minimum, within the active loop's bound,
// and the loop was not stopped), consume it inline and advance the clock —
// the coroutine switch out to the engine and back is skipped entirely. This
// is exact, not an approximation: the resume event's only effect is to
// transfer control back to the sleeping process, which staying on its
// coroutine achieves identically, and dispatch order is untouched because
// only the true minimum is ever consumed. A dead engine never takes the fast
// path, so a Sleep during Shutdown's unwind yields and is unwound in turn.
//
// Called from process context only: the dispatch loop is suspended in
// resume at this point, on the same thread of control, so the process may
// mutate the queue and clock directly.
//
//m3v:noalloc
func (e *Engine) popSelf(seq uint64) bool {
	if e.dead || e.stopped.Load() {
		return false
	}
	at, ok := e.wq.popSeq(seq, e.limit)
	if !ok {
		return false
	}
	e.now = at
	e.inlined++
	return true
}

// StartSampling arms sim-time telemetry: a trace.Sampler over the engine's
// metrics registry, driven by a recurring event every `every` (first tick at
// now+every). Each tick runs the registry's probes, snapshots all gauges and
// counter deltas into ring-buffered series (capSamples per series, 0 for the
// default), and reschedules itself. The engine also registers its own probe
// publishing sim.procs_ready / sim.procs_parked / sim.events_pending /
// sim.wheel_slots, so scheduler pressure shows up in the timelines.
//
// When sampling is off nothing here runs — no event is scheduled and the
// engine gauges are never created, so an unsampled run pays nothing.
//
// The recurring tick keeps the queue non-empty: bound the run with RunUntil
// (or Stop), as Engine.Run would spin on sampler ticks forever. Sampling
// does not emit trace events or spans, but each tick consumes sequence
// numbers, which shifts seeded fault schedules (see fault injection); event
// streams of fault-free runs are unaffected.
//
// Calling StartSampling again returns the existing sampler unchanged.
func (e *Engine) StartSampling(every Time, capSamples int) *trace.Sampler {
	if every <= 0 {
		panic("sim: StartSampling interval must be positive")
	}
	if e.sampler != nil {
		return e.sampler
	}
	m := e.rec.Metrics()
	gReady := m.Gauge("sim.procs_ready")
	gParked := m.Gauge("sim.procs_parked")
	gPending := m.Gauge("sim.events_pending")
	gSlots := m.Gauge("sim.wheel_slots")
	m.AddProbe(func() {
		parked := 0
		for _, p := range e.procs {
			if p.parked {
				parked++
			}
		}
		gParked.Set(int64(parked))
		gReady.Set(int64(len(e.procs) - parked))
		gPending.Set(int64(e.Pending()))
		gSlots.Set(int64(e.wq.occupiedSlots()))
	})
	s := trace.NewSampler(m, int64(every), capSamples)
	e.sampler = s
	e.rec.SetSampler(s)
	e.sampleEvery = every
	e.sampleFn = func() {
		if e.sampler == nil {
			return // StopSampling won over an already-queued tick
		}
		// Publish Sleep-fast-path events consumed since the last flush so the
		// events_executed series sees them; loop-dispatched events still batch
		// until the dispatch loop exits (deliberate — the hot loop touches no
		// counters).
		e.flush(0)
		e.sampler.Sample(int64(e.now))
		e.After(e.sampleEvery, e.sampleFn)
	}
	e.After(every, e.sampleFn)
	return s
}

// StopSampling disarms the sampler: an already-queued tick becomes a no-op
// and no further ticks are scheduled. The recorder's sampler reference is
// cleared too, so keep the *Sampler returned by StartSampling if the
// collected series are still wanted.
func (e *Engine) StopSampling() {
	e.sampler = nil
	e.rec.SetSampler(nil)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.wq.len() }

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int { return len(e.procs) }

// Shutdown unwinds all live processes. It must be called after Run has
// returned (never from handler or process context). The engine is dead
// afterwards; further use panics.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	e.dead = true
	// Every live process is suspended in yield or not yet started (the
	// engine is not running, so none is executing). stop makes a suspended
	// yield report false, so the process panics with shutdownError, runs its
	// defers and is recovered by the Spawn wrapper; a process that never
	// started just releases its coroutine. Either way stop returns only once
	// the coroutine has finished.
	for _, p := range e.procs {
		p.stop()
	}
	e.procs = nil
}

// shutdownError is the sentinel used to unwind processes at Shutdown.
type shutdownError struct{}

func (shutdownError) Error() string { return "sim: engine shut down" }
