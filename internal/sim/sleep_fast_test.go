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
// as if the loop had dispatched them. FuzzProcHandoff checks the fast path
// against a reference scheduler, across processes and RunUntil limits.
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
// Sleep must neither consume its own resume inline nor dispatch it, but
// switch back down to the RunUntil caller, whose loop then exits.
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
