package sim

import (
	"testing"
)

// BenchmarkEngineSchedule measures the steady-state schedule+dispatch path:
// a populated queue of self-rescheduling timers, one At and one pop per
// event. This is the path every DTU command and NoC packet rides; it must
// not allocate (the closures are created once, outside the loop).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	const timers = 256
	executed := 0
	stop := false
	for i := 0; i < timers; i++ {
		d := Time(i%17+1) * Nanosecond
		var tick func()
		tick = func() {
			executed++
			if !stop {
				e.After(d, tick)
			}
		}
		e.After(d, tick)
	}
	// Warm the queue's backing arrays, then measure the steady state.
	e.RunUntil(e.Now() + 100*Nanosecond)
	b.ReportAllocs()
	b.ResetTimer()
	target := executed + b.N
	for executed < target {
		e.RunUntil(e.Now() + 100*Nanosecond)
	}
	b.StopTimer()
	stop = true
	e.Run()
}

// BenchmarkEnginePingPong measures the process hand-off path: two processes
// waking each other through Park/Wake, four scheduled events per round trip
// (wake completion and resume for each side).
func BenchmarkEnginePingPong(b *testing.B) {
	e := NewEngine()
	var ping, pong *Proc
	rounds := 0
	ping = e.Spawn("ping", func(p *Proc) {
		for rounds < b.N {
			rounds++
			pong.Wake()
			p.Park()
		}
		pong.Wake()
	})
	pong = e.Spawn("pong", func(p *Proc) {
		for rounds < b.N {
			p.Park()
			ping.Wake()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkProcSleep measures one Sleep in both of its paths. In "fast" a
// lone process sleeps, so its resume is always the next event and popSelf
// consumes it inline without leaving the coroutine. In "miss" two processes
// sleep in lockstep: each one's resume is queued behind the other's
// co-scheduled resume at the same instant, so every Sleep switches out to
// the dispatch loop and back. The gap between the two is what the fast path
// saves per Sleep.
func BenchmarkProcSleep(b *testing.B) {
	for _, tc := range []struct {
		name  string
		procs int
	}{{"fast", 1}, {"miss", 2}} {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine()
			sleeps := 0
			for i := 0; i < tc.procs; i++ {
				e.Spawn("sleeper", func(p *Proc) {
					for sleeps < b.N {
						sleeps++
						p.Sleep(Nanosecond)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
			b.StopTimer()
			e.Shutdown()
		})
	}
}

// TestSchedulePathAllocFree pins the acceptance criterion of the timing
// wheel: once its backing arrays are warm, At/After plus dispatch allocate
// nothing. The run spreads deltas across slot widths and drains
// repeatedly, so slot recycling (not just first-touch warm-up) is what
// keeps it at zero.
func TestSchedulePathAllocFree(t *testing.T) {
	e := NewEngine()
	fns := make([]func(), 64)
	for i := range fns {
		fns[i] = func() {}
	}
	batch := func() {
		for i, fn := range fns {
			// 0..448ns: the same-time ring plus ~100 distinct level-0 slots
			// per batch as the clock advances.
			e.After(Time(i%8)*64*Nanosecond, fn)
		}
		e.Run()
	}
	batch() // warm up queue, ring, and counter paths
	if avg := testing.AllocsPerRun(100, batch); avg != 0 {
		t.Errorf("steady-state schedule path allocates %.1f allocs per 64 events, want 0", avg)
	}
}

// TestSleepWakeAllocFree verifies the cached resume/wake closures: a
// process's Sleep and the Park/Wake hand-off schedule without allocating.
func TestSleepWakeAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	var worker *Proc
	worker = e.Spawn("worker", func(p *Proc) {
		for {
			p.Sleep(Nanosecond)
			p.Park()
		}
	})
	cycle := func() {
		// One Sleep expiry plus one Wake per run.
		e.RunUntil(e.Now() + Nanosecond)
		worker.Wake()
		e.RunUntil(e.Now())
	}
	for i := 0; i < 8; i++ {
		cycle() // warm up
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("sleep/wake path allocates %.1f allocs/op, want 0", avg)
	}
}
