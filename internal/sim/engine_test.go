package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{Nanosecond, "1ns"},
		{1500 * Nanosecond, "1.5us"},
		{12500 * Picosecond, "12.5ns"},
		{Millisecond, "1ms"},
		{2 * Second, "2s"},
		{-Microsecond, "-1us"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestClockPeriods(t *testing.T) {
	if p := MHz(100).Period; p != 10000*Picosecond {
		t.Errorf("100 MHz period = %v, want 10ns", p)
	}
	if p := MHz(80).Period; p != 12500*Picosecond {
		t.Errorf("80 MHz period = %v, want 12.5ns", p)
	}
	if p := GHz(3).Period; p != 333*Picosecond {
		t.Errorf("3 GHz period = %v, want 333ps", p)
	}
	if n := MHz(80).CyclesIn(Microsecond); n != 80 {
		t.Errorf("cycles of 80MHz in 1us = %d, want 80", n)
	}
	if d := MHz(100).Cycles(100); d != Microsecond {
		t.Errorf("100 cycles at 100MHz = %v, want 1us", d)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(10*Nanosecond, func() { order = append(order, 2) }) // same time: insertion order
	e.At(40*Nanosecond, func() { order = append(order, 4) })
	end := e.Run()
	if end != 40*Nanosecond {
		t.Errorf("Run returned %v, want 40ns", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++ })
	e.At(20*Nanosecond, func() { fired++ })
	e.At(30*Nanosecond, func() { fired++ })
	e.RunUntil(20 * Nanosecond)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Now() != 20*Nanosecond {
		t.Errorf("Now = %v, want 20ns", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Errorf("after full Run fired = %d, want 3", fired)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10*Nanosecond, func() { fired++; e.Stop() })
	e.At(20*Nanosecond, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop should halt the loop)", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestStopThenRunUntilEarlierLimit(t *testing.T) {
	// Regression: Stop() from a handler leaves the clock at the handler's
	// timestamp. A later RunUntil with a limit before that timestamp must
	// not drag the clock backwards behind the already-executed event.
	e := NewEngine()
	fired := 0
	e.At(100*Nanosecond, func() { fired++; e.Stop() })
	e.At(200*Nanosecond, func() { fired++ })
	if end := e.Run(); end != 100*Nanosecond {
		t.Fatalf("Run stopped at %v, want 100ns", end)
	}
	if end := e.RunUntil(50 * Nanosecond); end != 100*Nanosecond {
		t.Errorf("RunUntil(50ns) = %v, want clock held at 100ns", end)
	}
	if e.Now() != 100*Nanosecond {
		t.Errorf("Now = %v, want 100ns (never backwards)", e.Now())
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	// The remaining event is still intact and runs on the next full Run.
	if end := e.Run(); end != 200*Nanosecond || fired != 2 {
		t.Errorf("final Run = %v fired=%d, want 200ns fired=2", end, fired)
	}
}

func TestStopWithSameTimeEventsPending(t *testing.T) {
	// Stop() with same-timestamp events still queued (in the ring): a later
	// Run must execute them at the same instant, in insertion order.
	e := NewEngine()
	var order []int
	e.At(10*Nanosecond, func() {
		order = append(order, 1)
		e.After(0, func() { order = append(order, 2) })
		e.After(0, func() { order = append(order, 3) })
		e.Stop()
	})
	e.Run()
	if len(order) != 1 {
		t.Fatalf("order after Stop = %v, want [1]", order)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if end := e.Run(); end != 10*Nanosecond {
		t.Errorf("resumed Run = %v, want 10ns", end)
	}
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Spawn("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(5 * Microsecond)
		marks = append(marks, p.Now())
		p.Sleep(3 * Microsecond)
		marks = append(marks, p.Now())
	})
	e.Run()
	want := []Time{0, 5 * Microsecond, 8 * Microsecond}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("marks[%d] = %v, want %v", i, marks[i], want[i])
		}
	}
	if e.Live() != 0 {
		t.Errorf("live = %d, want 0", e.Live())
	}
	e.Shutdown()
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var got Time
	p := e.Spawn("waiter", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.At(7*Microsecond, func() { p.Wake() })
	e.Run()
	if got != 7*Microsecond {
		t.Errorf("woken at %v, want 7us", got)
	}
	e.Shutdown()
}

func TestWakeBeforeParkIsNotLost(t *testing.T) {
	// The lost-wakeup problem from paper §3.7: a wake that arrives while the
	// process is still running must make the next Park return immediately.
	e := NewEngine()
	var woken Time
	p := e.Spawn("worker", func(p *Proc) {
		p.Sleep(10 * Microsecond) // busy while the wake arrives
		p.Park()                  // must not block
		woken = p.Now()
	})
	e.At(2*Microsecond, func() { p.Wake() })
	e.Run()
	if woken != 10*Microsecond {
		t.Errorf("park returned at %v, want 10us (immediately after sleep)", woken)
	}
	e.Shutdown()
}

func TestDuplicateWakesCoalesce(t *testing.T) {
	e := NewEngine()
	parks := 0
	p := e.Spawn("w", func(p *Proc) {
		p.Park()
		parks++
		p.Park() // second park must block forever (only one effective wake)
		parks++
	})
	e.At(Microsecond, func() { p.Wake(); p.Wake(); p.Wake() })
	e.RunUntil(Second)
	if parks != 1 {
		t.Errorf("parks completed = %d, want 1", parks)
	}
	e.Shutdown()
}

func TestTwoProcessesPingPong(t *testing.T) {
	e := NewEngine()
	var log []string
	var a, b *Proc
	a = e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			log = append(log, "a")
			b.Wake()
			p.Park()
		}
		b.Wake()
	})
	b = e.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Park()
			log = append(log, "b")
			a.Wake()
		}
	})
	e.Run()
	want := "ababab"
	got := ""
	for _, s := range log {
		got += s
	}
	if got != want {
		t.Errorf("sequence = %q, want %q", got, want)
	}
	e.Shutdown()
}

func TestWaitQueueFIFO(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	var order []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.At(Microsecond, func() {
		if q.Len() != 3 {
			t.Errorf("queue len = %d, want 3", q.Len())
		}
		q.WakeAll()
	})
	e.Run()
	if len(order) != 3 || order[0] != "p1" || order[1] != "p2" || order[2] != "p3" {
		t.Errorf("wake order = %v, want [p1 p2 p3]", order)
	}
	e.Shutdown()
}

func TestWaitQueueRemove(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	woken := false
	p := e.Spawn("p", func(p *Proc) {
		q.Wait(p)
		woken = true
	})
	e.At(Microsecond, func() {
		if !q.Remove(p) {
			t.Error("Remove reported false for queued proc")
		}
		if q.Remove(p) {
			t.Error("second Remove reported true")
		}
		q.WakeAll() // queue now empty; p must stay parked
	})
	e.RunUntil(Second)
	if woken {
		t.Error("removed process was woken")
	}
	e.Shutdown()
}

func TestDeterminism(t *testing.T) {
	// Two identical runs must produce identical event interleavings.
	run := func() []Time {
		e := NewEngine()
		var marks []Time
		for i := 0; i < 5; i++ {
			d := Time(i+1) * Microsecond
			e.Spawn("p", func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(d)
					marks = append(marks, p.Now())
				}
			})
		}
		e.Run()
		e.Shutdown()
		return marks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockRoundTripProperty(t *testing.T) {
	// For any cycle count, converting to duration and back is the identity.
	f := func(n uint16, mhz uint8) bool {
		freq := int64(mhz%200) + 1
		c := MHz(freq)
		return c.CyclesIn(c.Cycles(int64(n))) == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShutdownUnblocksParked(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Park() // never woken
	})
	e.Run()
	if e.Live() != 1 {
		t.Errorf("live = %d, want 1", e.Live())
	}
	e.Shutdown() // must not deadlock
}

// unwindCounts counts the defers of spawnUnwindSet's processes. Atomic, and
// read only after waitGoroutines, so the shutdown tests do not depend on
// Shutdown finishing each unwind before it returns.
type unwindCounts struct{ parked, sleeping, fresh atomic.Int32 }

func (c *unwindCounts) check(t *testing.T, n int32) {
	t.Helper()
	if c.parked.Load() != n || c.sleeping.Load() != n || c.fresh.Load() != 0 {
		t.Errorf("defers ran parked=%d sleeping=%d fresh=%d, want %d, %d, 0",
			c.parked.Load(), c.sleeping.Load(), c.fresh.Load(), n, n)
	}
}

// spawnUnwindSet builds an engine holding one process in each state Shutdown
// must unwind: parked (waiting for a Wake that never comes), sleeping (its
// resume event still queued) and never started (spawned after the last run,
// so its start event never ran and its defers must not run either).
func spawnUnwindSet(c *unwindCounts) *Engine {
	e := NewEngine()
	e.Spawn("parked", func(p *Proc) {
		defer c.parked.Add(1)
		p.Park()
	})
	e.Spawn("sleeping", func(p *Proc) {
		defer c.sleeping.Add(1)
		p.Sleep(Second)
	})
	e.RunUntil(Microsecond)
	e.Spawn("fresh", func(p *Proc) {
		defer c.fresh.Add(1)
		p.Park()
	})
	return e
}

// waitGoroutines polls until the goroutine count drops to at most n: every
// process holds a goroutine (its coroutine's stack) until it is unwound.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d (leaked process)", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

func TestShutdownUnwindsEveryState(t *testing.T) {
	base := runtime.NumGoroutine()
	var c unwindCounts
	e := spawnUnwindSet(&c)
	if e.Live() != 3 {
		t.Fatalf("live before Shutdown = %d, want 3", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Errorf("live after Shutdown = %d, want 0", e.Live())
	}
	waitGoroutines(t, base)
	c.check(t, 1)
}

func TestShutdownReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var c unwindCounts
	for i := 0; i < 100; i++ {
		spawnUnwindSet(&c).Shutdown()
	}
	waitGoroutines(t, base)
	c.check(t, 100)
}

// TestShutdownDeferBlocksAgain: a defer that sleeps or parks while Shutdown
// unwinds its process is unwound in turn instead of hanging Shutdown or
// leaking the process.
func TestShutdownDeferBlocksAgain(t *testing.T) {
	base := runtime.NumGoroutine()
	var sleeper, parker atomic.Int32
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		defer sleeper.Add(1)
		defer p.Sleep(Nanosecond)
		p.Park()
	})
	e.Spawn("parker", func(p *Proc) {
		defer parker.Add(1)
		defer p.Park()
		p.Sleep(Second)
	})
	e.RunUntil(Microsecond)
	done := make(chan struct{})
	go func() {
		e.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a defer that blocks during the unwind")
	}
	waitGoroutines(t, base)
	if sleeper.Load() != 1 || parker.Load() != 1 {
		t.Errorf("defers ran sleeper=%d parker=%d, want each once", sleeper.Load(), parker.Load())
	}
}

type procPanic struct{ code int }

// TestProcPanicSurfacesFromRun: a model panic inside a process leaves Run
// with its original value; the panicking process is finished and no longer
// live, and a later Shutdown still unwinds the others.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	unwound := 0
	e.Spawn("bystander", func(p *Proc) {
		defer func() { unwound++ }()
		p.Park()
	})
	bad := e.Spawn("bad", func(p *Proc) {
		p.Sleep(Nanosecond)
		panic(procPanic{42})
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != (procPanic{42}) {
		t.Fatalf("Run panicked with %#v, want procPanic{42}", got)
	}
	if !bad.Done() {
		t.Error("panicking process not marked done")
	}
	if e.Live() != 1 {
		t.Errorf("live = %d, want 1 (the bystander)", e.Live())
	}
	if e.Now() != Nanosecond {
		t.Errorf("Now = %v, want 1ns", e.Now())
	}
	e.Shutdown()
	if unwound != 1 || e.Live() != 0 {
		t.Errorf("after Shutdown: bystander unwound %d times, live %d; want 1, 0", unwound, e.Live())
	}
}

// TestProcGoexitEndsRun: runtime.Goexit inside a process (t.Fatal in a test
// process) ends the goroutine that called Run, with the process done.
func TestProcGoexitEndsRun(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("quitter", func(p *Proc) {
		p.Sleep(Nanosecond)
		runtime.Goexit()
	})
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Error("Run returned normally after runtime.Goexit in a process")
	}
	if !p.Done() || e.Live() != 0 {
		t.Errorf("done = %v, live = %d; want true, 0", p.Done(), e.Live())
	}
	e.Shutdown() // Run's goroutine left the engine idle, not running
}
