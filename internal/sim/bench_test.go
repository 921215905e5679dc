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

// pollCount is a Poller that finds work once its shared budget of checks
// is used up.
type pollCount int

func (c *pollCount) PollIdle() bool {
	*c--
	return *c > 0
}

// BenchmarkProcPoll measures one idle poll check, the unit of every
// multiplexer and controller wait. Two processes poll in lockstep, so each
// one's check is queued behind the other's at the same instant and is never
// consumed inline. In "handler" they wait with Poll, whose checks run as
// handler-context events; in "sleep" with the equivalent Sleep loop, where
// every check switches into the process and back out.
func BenchmarkProcPoll(b *testing.B) {
	for _, tc := range []struct {
		name string
		poll bool
	}{{"handler", true}, {"sleep", false}} {
		b.Run(tc.name, func(b *testing.B) {
			e := NewEngine()
			left := pollCount(b.N)
			for i := 0; i < 2; i++ {
				e.Spawn("poller", func(p *Proc) {
					if tc.poll {
						p.Poll(Nanosecond, &left)
						return
					}
					for {
						p.Sleep(Nanosecond)
						if !left.PollIdle() {
							return
						}
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

// TestSchedulePathAllocFree pins the event queue's alloc guard: once the
// heap and the same-time ring are warm, At/After plus dispatch allocate
// nothing. Every batch refills and drains both, so reused capacity (not
// just first-touch warm-up) is what keeps it at zero.
func TestSchedulePathAllocFree(t *testing.T) {
	e := NewEngine()
	fns := make([]func(), 64)
	for i := range fns {
		fns[i] = func() {}
	}
	batch := func() {
		for i, fn := range fns {
			// 0..448ns: the same-time ring plus the heap.
			e.After(Time(i%8)*64*Nanosecond, fn)
		}
		e.Run()
	}
	batch() // warm up queue, ring, and counter paths
	if avg := testing.AllocsPerRun(100, batch); avg != 0 {
		t.Errorf("steady-state schedule path allocates %.1f allocs per 64 events, want 0", avg)
	}
}

// TestSleepWakeAllocFree verifies the cached resume/wake/poll closures: a
// process's Sleep, the Park/Wake hand-off and a Poll schedule without
// allocating.
func TestSleepWakeAllocFree(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	var worker *Proc
	var left pollCount
	worker = e.Spawn("worker", func(p *Proc) {
		for {
			p.Sleep(Nanosecond)
			p.Park()
			p.Poll(Nanosecond, &left)
		}
	})
	cycle := func() {
		// One Sleep expiry plus one Wake per run, then a Poll of three
		// checks: the first runs in handler context and consumes the other
		// two inline, and the third finds work and resumes the worker.
		e.RunUntil(e.Now() + Nanosecond)
		worker.Wake()
		left = 3
		e.RunUntil(e.Now())
		e.RunUntil(e.Now() + 3*Nanosecond)
	}
	for i := 0; i < 8; i++ {
		cycle() // warm up
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("sleep/wake path allocates %.1f allocs/op, want 0", avg)
	}
}
