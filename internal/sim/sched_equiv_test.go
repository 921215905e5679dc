package sim

import (
	"math/rand"
	"testing"
)

// eventQueue is the contract the engine drives its scheduler through. The
// timing wheel is the only implementation in product code; heapQueue is
// the test-only reference it is compared against.
type eventQueue interface {
	schedule(ev event, now Time)
	popNext() (event, bool)
	popLimit(limit Time) (event, int)
	popSeq(seq uint64, limit Time) (Time, bool)
	len() int
}

func newWheelQueue() *wheelQueue {
	q := &wheelQueue{}
	q.init()
	return q
}

// queueDriver replays the engine's scheduling and dispatch loops (At,
// RunUntil, Run) over a bare queue, so the wheel and the heap reference can
// be compared with nothing else in between.
type queueDriver struct {
	q   eventQueue
	now Time
	seq uint64
}

func (d *queueDriver) after(delta Time, fn func()) {
	d.seq++
	d.q.schedule(event{at: d.now + delta, seq: d.seq, fn: fn}, d.now)
}

// runUntil mirrors Engine.RunUntil's loop.
func (d *queueDriver) runUntil(limit Time) {
	for {
		ev, st := d.q.popLimit(limit)
		if st != popOK {
			if st == popBeyond && limit > d.now {
				d.now = limit
			}
			return
		}
		d.now = ev.at
		ev.fn()
	}
}

// run mirrors Engine.Run's loop.
func (d *queueDriver) run() {
	for {
		ev, ok := d.q.popNext()
		if !ok {
			return
		}
		d.now = ev.at
		ev.fn()
	}
}

// dispatchRec is one executed event as observed by the equivalence driver.
type dispatchRec struct {
	at  Time
	seq uint64
}

// driveSchedule decodes the fuzz input into a schedule of At/After/RunUntil
// operations, runs it on the given queue, and returns the dispatch order as
// (at, seq) records. The decoding exercises every queue region of the
// timing wheel:
//
//   - low bytes schedule short deltas (0..63ns): level-0 slots and, from
//     handler context, the same-time ring and the sorted cur run (deltas
//     below the already-drained slot horizon);
//   - 0x80-prefixed bytes schedule scaled deltas up to beyond level 3's
//     17.6s window: coarse levels, cascading, and the overflow heap;
//   - 0xC0-prefixed bytes advance a RunUntil limit and drain up to it,
//     interleaving pops with later pushes (re-anchoring, behind-horizon
//     inserts).
func driveSchedule(q eventQueue, data []byte) []dispatchRec {
	d := &queueDriver{q: q}
	var out []dispatchRec
	var schedule func(delta Time, follow byte)
	schedule = func(delta Time, follow byte) {
		seq := d.seq + 1 // after assigns the next sequence number
		d.after(delta, func() {
			out = append(out, dispatchRec{d.now, seq})
			if follow&0x01 != 0 {
				schedule(0, 0) // same-time ring
			}
			if follow&0x02 != 0 {
				schedule(Nanosecond, 0) // sub-slot delta: cur insert on the wheel
			}
			if follow&0x04 != 0 {
				schedule(100*Nanosecond, 0)
			}
		})
	}
	var limit Time
	for _, b := range data {
		switch b & 0xC0 {
		case 0xC0:
			// Drain up to a moving limit; later bytes keep pushing after the
			// wheel re-anchors.
			limit += Time(b&0x3F+1) * 50 * Nanosecond
			d.runUntil(limit)
		case 0x80:
			// Scaled far-future delta: shift 20/28/36/44 selects wheel levels
			// 1..3 and, at the top, the overflow heap.
			shift := 20 + uint(b&0x30)>>4*8
			d.after(Time(int64(b&0x0F+1)<<shift), func() {
				out = append(out, dispatchRec{d.now, d.seq})
			})
		default:
			schedule(Time(b&0x3F)*Nanosecond, b>>3)
		}
	}
	d.run()
	return out
}

// FuzzQueueEquivalence is the differential fuzz target of the timing wheel:
// any interleaving of At/After/RunUntil operations must dispatch in exactly
// the same (at, seq) order as the heap reference queue. This is the
// property that keeps trace hashes, flow spans, fault schedules, and the
// golden figures bit-identical to the heap-scheduled runs they were first
// recorded with.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 9, 17, 25, 33, 41, 49, 57})             // spread over L0 slots
	f.Add([]byte{0x0B, 0x13, 0x0B, 0xC1, 0x0B, 0x13})       // follow-ups + drain step
	f.Add([]byte{0x80, 0x91, 0xA2, 0xB3, 0x01, 0xC4, 0x01}) // all coarse levels + overflow
	f.Add([]byte{0xBF, 0x01, 0xC1, 0x01, 0xBF, 0xC1})       // overflow heap vs near events
	f.Add([]byte{0xC1, 0x3F, 0xC1, 0x3F, 0xC1})             // re-anchor after drains
	f.Add([]byte{0x1F, 0x1F, 0x1F, 0x1F, 0xC2, 0x9F, 0x0F}) // cascade with pending cur

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		heap := driveSchedule(&heapQueue{}, data)
		wheel := driveSchedule(newWheelQueue(), data)
		if len(heap) != len(wheel) {
			t.Fatalf("dispatch count differs: heap %d, wheel %d", len(heap), len(wheel))
		}
		for i := range heap {
			if heap[i] != wheel[i] {
				t.Fatalf("dispatch %d differs: heap (%v, %d), wheel (%v, %d)",
					i, heap[i].at, heap[i].seq, wheel[i].at, wheel[i].seq)
			}
		}
		// The common order must itself be a valid (at, seq) total order.
		for i := 1; i < len(heap); i++ {
			a, b := heap[i-1], heap[i]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				t.Fatalf("order violated at %d: (%v,%d) before (%v,%d)",
					i, a.at, a.seq, b.at, b.seq)
			}
		}
	})
}

// TestPopSeqEquivalence compares the queue half of the Sleep self-resume
// fast path (popSeq) between the wheel and the heap reference. A sleeper
// schedules its own resume and immediately offers to consume it inline
// under a RunUntil-style bound, while timers at competing times keep the
// queue busy; whenever the fast path declines, both queues pop their next
// event the slow way. Every answer, and the final dispatch order, must
// agree.
func TestPopSeqEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// One shared script of (sleep delta, competing-timer delta, bound slack)
	// steps, so both queues see identical operations.
	type step struct{ sleep, timer, slack Time }
	deltas := []Time{0, Nanosecond, 3 * Nanosecond, 64 * Nanosecond, Microsecond,
		300 * Microsecond, 10 * Millisecond, 20 * Second}
	script := make([]step, 2000)
	for i := range script {
		script[i] = step{
			sleep: deltas[rng.Intn(len(deltas))],
			timer: deltas[rng.Intn(len(deltas))],
			slack: deltas[rng.Intn(len(deltas))],
		}
	}
	type answer struct {
		at Time
		ok bool
	}
	drive := func(q eventQueue) ([]answer, []dispatchRec) {
		d := &queueDriver{q: q}
		var answers []answer
		var order []dispatchRec
		for i, s := range script {
			if i%3 == 0 {
				d.after(s.timer, func() {})
			}
			d.after(s.sleep, func() {})
			at, ok := q.popSeq(d.seq, d.now+s.slack)
			answers = append(answers, answer{at, ok})
			if ok {
				d.now = at
				continue
			}
			ev, st := q.popLimit(d.now + s.slack)
			if st == popOK {
				d.now = ev.at
				order = append(order, dispatchRec{ev.at, ev.seq})
			}
		}
		for {
			ev, ok := q.popNext()
			if !ok {
				break
			}
			order = append(order, dispatchRec{ev.at, ev.seq})
		}
		return answers, order
	}
	heapAns, heapOrder := drive(&heapQueue{})
	wheelAns, wheelOrder := drive(newWheelQueue())
	inlined := 0
	for i := range heapAns {
		if heapAns[i] != wheelAns[i] {
			t.Fatalf("step %d: popSeq heap %+v, wheel %+v", i, heapAns[i], wheelAns[i])
		}
		if heapAns[i].ok {
			inlined++
		}
	}
	if inlined == 0 || inlined == len(script) {
		t.Fatalf("script exercised one popSeq outcome only (%d/%d inlined)", inlined, len(script))
	}
	if len(heapOrder) != len(wheelOrder) {
		t.Fatalf("dispatch count differs: heap %d, wheel %d", len(heapOrder), len(wheelOrder))
	}
	for i := range heapOrder {
		if heapOrder[i] != wheelOrder[i] {
			t.Fatalf("dispatch %d differs: heap %+v, wheel %+v", i, heapOrder[i], wheelOrder[i])
		}
	}
}
