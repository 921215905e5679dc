package sim

import (
	"reflect"
	"testing"
)

// TestSleepFastPathEquivalence runs a process program whose sleeps mix the
// inline fast path (nothing else pending), the slow path (a competing timer
// is due first), zero-length sleeps (the same-time ring), and a far sleep.
// The observable timeline (the clock after every Sleep) must be exactly the
// arithmetic of the sleeps, and events_executed must count inlined resumes
// as if the loop had dispatched them. The queue half of the fast path
// (popSeq) is pinned directly in TestQueuePopSeq.
func TestSleepFastPathEquivalence(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	var timeline []Time
	ticks := 0
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * Nanosecond) // inline: queue otherwise empty
		timeline = append(timeline, p.Now())
		p.Sleep(0) // ring path
		timeline = append(timeline, p.Now())
		e.After(Nanosecond, func() { ticks++ }) // competing timer...
		p.Sleep(5 * Nanosecond)                 // ...forces the slow path
		timeline = append(timeline, p.Now())
		p.Sleep(10 * Millisecond) // far
		timeline = append(timeline, p.Now())
		for i := 0; i < 100; i++ {
			p.Sleep(Time(i%7+1) * 64 * Nanosecond)
		}
		timeline = append(timeline, p.Now())
	})
	e.Run()
	if ticks != 1 {
		t.Fatalf("competing timer ran %d times, want 1", ticks)
	}
	var loop Time
	for i := 0; i < 100; i++ {
		loop += Time(i%7+1) * 64 * Nanosecond
	}
	far := 8*Nanosecond + 10*Millisecond
	want := []Time{3 * Nanosecond, 3 * Nanosecond, 8 * Nanosecond, far, far + loop}
	if !reflect.DeepEqual(timeline, want) {
		t.Errorf("timeline = %v, want %v", timeline, want)
	}
	// 1 spawn resume + 104 sleeps + 1 competing timer, counted whether the
	// dispatch loop or the inline fast path consumed them.
	if n := e.Tracer().Metrics().Counter("sim.events_executed").Value(); n != 106 {
		t.Errorf("events_executed = %d, want 106", n)
	}
}

// pollProbe is a Poller over a flag that a competing event sets. Each check
// records the engine's clock, sequence number and inline-consumed event
// count, so two runs can be compared check by check. With left > 0 it also
// reports work on its own at the left-th check.
type pollProbe struct {
	e      *Engine
	ready  bool
	left   int
	checks [][3]int64
}

func (w *pollProbe) PollIdle() bool {
	w.checks = append(w.checks, [3]int64{int64(w.e.now), int64(w.e.seq), w.e.inlined})
	if w.left > 0 {
		w.left--
		if w.left == 0 {
			return false
		}
	}
	return !w.ready
}

// pollRun is everything a poll scenario observes.
type pollRun struct {
	returned Time   // when the wait returned
	nows     []Time // Now() after each RunUntil and the final Run
	seq      uint64 // e.Seq() at the end
	events   int64  // sim.events_executed at the end
	checks   [][3]int64
}

// pollScenario polls every 10ns from time 0; flip (optional) arranges the
// competing events and limits the RunUntil bounds before the final Run.
type pollScenario struct {
	name   string
	flip   func(e *Engine, w *pollProbe)
	left   int
	limits []Time
	want   Time // expected return time
}

func runPoll(poll bool, sc pollScenario) pollRun {
	const every = 10 * Nanosecond
	e := NewEngine()
	defer e.Shutdown()
	w := &pollProbe{e: e, left: sc.left}
	r := pollRun{returned: -1}
	e.Spawn("waiter", func(p *Proc) {
		if poll {
			p.Poll(every, w)
		} else {
			for {
				p.Sleep(every)
				if !w.PollIdle() {
					break
				}
			}
		}
		r.returned = p.Now()
		p.Sleep(every) // the process runs on after the wait
	})
	if sc.flip != nil {
		sc.flip(e, w)
	}
	for _, l := range sc.limits {
		r.nows = append(r.nows, e.RunUntil(l))
	}
	r.nows = append(r.nows, e.Run())
	r.seq = e.Seq()
	r.events = e.Tracer().Metrics().Counter("sim.events_executed").Value()
	r.checks = w.checks
	return r
}

// TestPollEquivalence pins Proc.Poll to the Sleep loop it replaces: the same
// checks at the same times and sequence numbers, the same split between
// dispatched and inline-consumed events, the same return time, Seq,
// events_executed and clock after every RunUntil.
func TestPollEquivalence(t *testing.T) {
	flipAt := func(d Time) func(*Engine, *pollProbe) {
		return func(e *Engine, w *pollProbe) {
			e.Spawn("flipper", func(p *Proc) {
				p.Sleep(d)
				w.ready = true
			})
		}
	}
	for _, sc := range []pollScenario{
		{name: "off-grid", flip: flipAt(35 * Nanosecond), want: 40 * Nanosecond},
		{
			// The flip at 40ns was queued before the check at 30ns queued
			// the check at 40ns, so it runs first and that check sees it.
			name: "on-grid-before",
			flip: func(e *Engine, w *pollProbe) {
				e.At(40*Nanosecond, func() { w.ready = true })
			},
			want: 40 * Nanosecond,
		},
		{
			// The flip at 40ns is queued at 30ns, after the check at 30ns
			// queued the check at 40ns: that check misses it.
			name: "on-grid-after",
			flip: func(e *Engine, w *pollProbe) {
				e.Spawn("flipper", func(p *Proc) {
					p.Sleep(25 * Nanosecond)
					p.Sleep(5 * Nanosecond)
					e.After(10*Nanosecond, func() { w.ready = true })
				})
			},
			want: 50 * Nanosecond,
		},
		{
			name:   "run-until",
			flip:   flipAt(73 * Nanosecond),
			limits: []Time{45 * Nanosecond, 60 * Nanosecond, 75 * Nanosecond},
			want:   80 * Nanosecond,
		},
		{name: "lone", left: 5, want: 50 * Nanosecond},
	} {
		t.Run(sc.name, func(t *testing.T) {
			loop, poll := runPoll(false, sc), runPoll(true, sc)
			if loop.returned != sc.want {
				t.Fatalf("Sleep loop returned at %v, want %v", loop.returned, sc.want)
			}
			if !reflect.DeepEqual(loop, poll) {
				t.Errorf("Poll diverges from the Sleep loop:\nloop %+v\npoll %+v", loop, poll)
			}
		})
	}
	// The lone poll is the only pending event, so every check after the
	// first is consumed inline.
	lone := runPoll(true, pollScenario{left: 5})
	if last := lone.checks[len(lone.checks)-1]; last[2] < 4 {
		t.Errorf("lone poll consumed %d checks inline, want at least 4", last[2])
	}
}

// TestSleepFastPathRespectsRunUntilLimit pins the bound check: a process
// whose resume is the next event must still not advance the clock past the
// active RunUntil limit, even though nothing else is queued.
func TestSleepFastPathRespectsRunUntilLimit(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	resumed := false
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		resumed = true
	})
	if got := e.RunUntil(10 * Nanosecond); got != 10*Nanosecond {
		t.Fatalf("RunUntil(10ns) = %v", got)
	}
	if resumed {
		t.Fatal("process resumed before its wake-up time")
	}
	if got := e.RunUntil(200 * Nanosecond); got != 100*Nanosecond {
		t.Fatalf("RunUntil(200ns) = %v, want 100ns", got)
	}
	if !resumed {
		t.Fatal("process did not resume")
	}
}

// TestSleepFastPathAfterStop pins the Stop guard: once Stop is called, a
// Sleep must hand control back to the engine (whose loop then exits) instead
// of consuming its own resume inline and running past the stop.
func TestSleepFastPathAfterStop(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	resumed := false
	e.Spawn("stopper", func(p *Proc) {
		e.Stop()
		p.Sleep(Nanosecond)
		resumed = true
	})
	e.Run()
	if resumed {
		t.Fatal("Sleep ran through a Stop")
	}
	e.Run()
	if !resumed {
		t.Fatal("second Run did not resume the process")
	}
}
