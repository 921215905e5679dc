package sim

import (
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"
)

// A hop is one step of a process program decoded by FuzzProcHandoff.
type hop struct {
	op   byte
	d    Time
	peer int
}

const (
	hopSleep = iota // Sleep(d)
	hopPark         // Park
	hopWake         // Wake(peer)
	hopTimer        // schedule a handler that wakes peer after d
	hopStop         // Engine.Stop from process context
)

var hopDelays = [4]Time{0, Nanosecond, 2 * Nanosecond, 5 * Nanosecond}

// decodeHandoff turns fuzz input into 2–6 process programs of at most 16
// hops each, dealt round-robin, and the limit of the first RunUntil.
func decodeHandoff(data []byte) ([][]hop, Time) {
	if len(data) < 2 {
		return nil, 0
	}
	n := 2 + int(data[0])%5
	progs := make([][]hop, n)
	for i, b := range data[2:] {
		if i >= 16*n {
			break
		}
		h := hop{peer: int(b>>3) % n}
		switch b & 7 {
		case 0, 1, 2, 3:
			h.op, h.d = hopSleep, hopDelays[b&3]
		case 4:
			h.op = hopPark
		case 5:
			h.op = hopWake
		case 6:
			h.op, h.d = hopTimer, hopDelays[b>>6]
		case 7:
			h.op = hopStop
		}
		progs[i%n] = append(progs[i%n], h)
	}
	return progs, Time(data[1]%24) * Nanosecond
}

// hopLog is one observation: process who starts hop step at time at (step
// = len(program) when it finishes), or, with who = -1-k, the handler
// scheduled by hop step of process k runs.
type hopLog struct {
	at   Time
	who  int
	step int
}

// handoffRun is everything a run of decoded programs shows from outside.
type handoffRun struct {
	log      []hopLog
	ends     []Time // return value of the RunUntil, then of each Run
	executed int64
}

// runHandoffEngine runs the programs on the engine: RunUntil(limit), then
// Run until no event is left.
func runHandoffEngine(progs [][]hop, limit Time) handoffRun {
	var r handoffRun
	e := NewEngine()
	defer e.Shutdown()
	procs := make([]*Proc, len(progs))
	for i, prog := range progs {
		procs[i] = e.Spawn(strconv.Itoa(i), func(p *Proc) {
			for s, h := range prog {
				r.log = append(r.log, hopLog{p.Now(), i, s})
				switch h.op {
				case hopSleep:
					p.Sleep(h.d)
				case hopPark:
					p.Park()
				case hopWake:
					procs[h.peer].Wake()
				case hopTimer:
					e.After(h.d, func() {
						r.log = append(r.log, hopLog{e.Now(), -1 - i, s})
						procs[h.peer].Wake()
					})
				case hopStop:
					e.Stop()
				}
			}
			r.log = append(r.log, hopLog{p.Now(), i, len(prog)})
		})
	}
	r.ends = append(r.ends, e.RunUntil(limit))
	for e.Pending() > 0 {
		r.ends = append(r.ends, e.Run())
	}
	r.executed = e.Tracer().Metrics().Counter("sim.events_executed").Value()
	return r
}

// refProc and refSched are the reference the engine is checked against: a
// plain scheduler with one goroutine per process, unbuffered-channel
// hand-offs and its events in a slice sorted by (at, seq).
type refProc struct {
	run                                    chan bool // resume (true) or end (closed)
	parked, wakePending, interrupted, done bool
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refSched struct {
	now      Time
	seq      uint64
	events   []refEvent
	stopped  bool
	back     chan struct{} // the running process blocked or finished
	executed int64
}

func (r *refSched) after(d Time, fn func()) {
	r.seq++
	r.events = append(r.events, refEvent{r.now + d, r.seq, fn})
}

func (r *refSched) runUntil(limit Time) Time {
	r.stopped = false
	for !r.stopped && len(r.events) > 0 {
		sort.Slice(r.events, func(a, b int) bool {
			if r.events[a].at != r.events[b].at {
				return r.events[a].at < r.events[b].at
			}
			return r.events[a].seq < r.events[b].seq
		})
		ev := r.events[0]
		if ev.at > limit {
			if limit > r.now {
				r.now = limit
			}
			break
		}
		r.events = r.events[1:]
		r.now = ev.at
		r.executed++
		ev.fn()
	}
	return r.now
}

func (r *refSched) resume(p *refProc) {
	p.run <- true
	<-r.back
}

// block hands control back to the scheduler and waits to be resumed; a
// closed run channel ends the process goroutine.
func (r *refSched) block(p *refProc) {
	r.back <- struct{}{}
	if !<-p.run {
		runtime.Goexit()
	}
}

func (r *refSched) wake(p *refProc) {
	switch {
	case p.done:
	case !p.parked:
		p.interrupted = true
	case !p.wakePending:
		p.wakePending = true
		r.after(0, func() {
			p.wakePending = false
			if !p.parked {
				p.interrupted = true
				return
			}
			p.parked = false
			r.resume(p)
		})
	}
}

func runHandoffRef(progs [][]hop, limit Time) handoffRun {
	var out handoffRun
	r := &refSched{back: make(chan struct{})}
	procs := make([]*refProc, len(progs))
	for i := range procs {
		procs[i] = &refProc{run: make(chan bool)}
	}
	for i, prog := range progs {
		p := procs[i]
		go func() {
			if !<-p.run {
				return
			}
			for s, h := range prog {
				out.log = append(out.log, hopLog{r.now, i, s})
				switch h.op {
				case hopSleep:
					r.after(h.d, func() { r.resume(p) })
					r.block(p)
				case hopPark:
					if p.interrupted {
						p.interrupted = false
						break
					}
					p.parked = true
					r.block(p)
				case hopWake:
					r.wake(procs[h.peer])
				case hopTimer:
					r.after(h.d, func() {
						out.log = append(out.log, hopLog{r.now, -1 - i, s})
						r.wake(procs[h.peer])
					})
				case hopStop:
					r.stopped = true
				}
			}
			out.log = append(out.log, hopLog{r.now, i, len(prog)})
			p.done = true
			r.back <- struct{}{}
		}()
		r.after(0, func() { r.resume(p) })
	}
	out.ends = append(out.ends, r.runUntil(limit))
	for len(r.events) > 0 {
		out.ends = append(out.ends, r.runUntil(MaxTime))
	}
	for _, p := range procs {
		close(p.run)
	}
	out.executed = r.executed
	return out
}

// FuzzProcHandoff checks the direct process hand-off against the reference
// scheduler: 2–6 processes that sleep, park, wake each other, arm handler
// timers that wake a process and stop the run, under a first RunUntil
// limit that may cut the run mid-way. The engine's log of (time, process,
// step), the value every Run returns and events_executed must equal the
// reference's, whichever process dispatched each event.
func FuzzProcHandoff(f *testing.F) {
	f.Add([]byte{0, 23, 0x04, 0x0d})                         // ping-pong
	f.Add([]byte{0, 0, 0x02, 0x01})                          // lone resumes beyond the first limit
	f.Add([]byte{1, 23, 0x0d, 0x15, 0x05, 0x04, 0x04, 0x04}) // ring of 3
	f.Add([]byte{2, 3, 0x01, 0x02, 0x03, 0x04, 0x0c, 0x14, 0x0d, 0x15, 0x1d, 0x1e})
	f.Add([]byte{0, 0, 0x46, 0x04, 0x86, 0x0c, 0xc6, 0x04})
	f.Add([]byte{3, 7, 0x07, 0x01, 0x04, 0x0d, 0x17, 0x03, 0x0c, 0x25, 0x1c, 0x00})
	f.Add([]byte{4, 11, 0x04, 0x04, 0x04, 0x04, 0x04, 0x04, 0x0d, 0x15, 0x1d, 0x25, 0x2d, 0x05})
	f.Add([]byte{1, 5, 0x03, 0x02, 0x01, 0x00, 0x0e, 0x4e, 0x8e, 0xce, 0x04, 0x04, 0x04, 0x07})
	f.Add([]byte{2, 9, 0x0f, 0x17, 0x04, 0x0d, 0x04, 0x15, 0x04, 0x1d, 0x02, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		progs, limit := decodeHandoff(data)
		if progs == nil {
			return
		}
		got := runHandoffEngine(progs, limit)
		want := runHandoffRef(progs, limit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("programs %v, limit %v:\nengine    %+v\nreference %+v", progs, limit, got, want)
		}
	})
}

// TestHandoffSwitchCount guards the direct hand-off's switch count. In a
// ping-pong each Park dispatches the partner's wake and enters the partner,
// which parks in turn and switches straight back: one coroutine entry per
// round, where a dispatch loop outside the processes needs two. In a ring of
// three, the last process switches back down the hand-off stack to the
// first, so a round costs two entries.
func TestHandoffSwitchCount(t *testing.T) {
	const rounds = 1000
	e := NewEngine()
	defer e.Shutdown()
	var ping, pong *Proc
	done := 0
	ping = e.Spawn("ping", func(p *Proc) {
		for ; done < rounds; done++ {
			pong.Wake()
			p.Park()
		}
		pong.Wake()
	})
	pong = e.Spawn("pong", func(p *Proc) {
		for done < rounds {
			p.Park()
			ping.Wake()
		}
	})
	e.Run()
	if done != rounds {
		t.Fatalf("ping-pong ran %d rounds, want %d", done, rounds)
	}
	t.Logf("ping-pong: %d entries for %d rounds", e.Entries(), rounds)
	if n := e.Entries(); n > rounds+2 {
		t.Errorf("ping-pong: %d coroutine entries for %d rounds, want at most %d", n, rounds, rounds+2)
	}

	r := NewEngine()
	defer r.Shutdown()
	var ring [3]*Proc
	hops := 0
	for i := range ring {
		ring[i] = r.Spawn("ring"+strconv.Itoa(i), func(p *Proc) {
			for hops < 3*rounds {
				hops++
				ring[(i+1)%3].Wake()
				p.Park()
			}
		})
	}
	r.Run()
	if hops != 3*rounds {
		t.Fatalf("ring ran %d hops, want %d", hops, 3*rounds)
	}
	t.Logf("ring: %d entries for %d rounds", r.Entries(), rounds)
	if n := r.Entries(); n > 2*rounds {
		t.Errorf("ring: %d coroutine entries for %d rounds, want at most %d", n, rounds, 2*rounds)
	}
}

// TestCancelWhileProcessDispatches: a Cancel from another goroutine, made
// while an event that a blocked process dispatches is running, ends
// RunUntil right after that event. Every process switches back down, so
// none is left on the hand-off stack, and later events stay queued.
func TestCancelWhileProcessDispatches(t *testing.T) {
	e := NewEngine()
	defer e.Shutdown()
	// Each process blocks in turn and enters the next one's start, so the
	// cancel at 0.5ns runs on top of all three: sleeper's Sleep dispatches it.
	waiter := e.Spawn("waiter", func(p *Proc) { p.Park() })
	slept := false
	middle := e.Spawn("middle", func(p *Proc) {
		p.Sleep(Nanosecond)
		slept = true
	})
	var sleeper *Proc
	stacked := 0
	later := 0
	e.At(Nanosecond/2, func() {
		for _, p := range []*Proc{waiter, middle, sleeper} {
			if p.entered {
				stacked++
			}
		}
		cancelled := make(chan struct{})
		go func() {
			e.Cancel()
			close(cancelled)
		}()
		<-cancelled
	})
	e.At(Nanosecond/2, func() { later++ })
	sleeper = e.Spawn("sleeper", func(p *Proc) { p.Sleep(2 * Nanosecond) })
	if end := e.RunUntil(Second); end != Nanosecond/2 {
		t.Errorf("RunUntil = %v, want %v (the cancelling event's time)", end, Nanosecond/2)
	}
	if stacked != 3 {
		t.Errorf("%d processes on the hand-off stack during the cancel, want 3", stacked)
	}
	if later != 0 || slept {
		t.Errorf("ran past the cancel: later event %d times, middle woke %v", later, slept)
	}
	for _, p := range e.procs {
		if p.entered {
			t.Errorf("process %q still on the hand-off stack", p.name)
		}
	}
	if e.handoff != nil || e.running {
		t.Errorf("handoff = %v, running = %v after RunUntil", e.handoff, e.running)
	}
	if !waiter.parked || sleeper.Done() || e.Live() != 3 {
		t.Errorf("waiter parked %v, sleeper done %v, live %d; want true, false, 3",
			waiter.parked, sleeper.Done(), e.Live())
	}
}
