package sim

import "math/bits"

// wheelQueue is a hierarchical timing wheel (calendar queue) ordering events
// by (at, seq), tuned to the simulator's delay distribution (measured on the
// fig9 workload; see DESIGN.md §10): ~13% of events are scheduled at the
// current time (the ring), essentially nothing lands below 8ns, ~87% of the
// rest between 8ns and 1µs, and a thin far tail (pager, fault backoff,
// second-scale idle timers). Geometry:
//
//	level 0: 256 slots × 2^12 ps (~4.1ns)  — span ~1.05µs (captures the bulk)
//	level 1: 256 slots × 2^20 ps (~1.05µs) — span ~268µs
//	level 2: 256 slots × 2^28 ps (~268µs)  — span ~68.7ms
//	level 3: 256 slots × 2^36 ps (~68.7ms) — span ~17.6s
//
// Events beyond level 3's window go to an overflow 4-ary heap (heapPush /
// heapPop), so degenerate far-future scheduling degrades to a plain heap
// rather than breaking.
//
// Ordering invariant (the reason the wheel dispatches in exact (at, seq)
// order, bit-identically to the heap reference queue in the tests):
//
//   - cur holds the drained run of wheel events with at < lowBound, sorted
//     by (at, seq); every event still in a slot has at >= lowBound. The
//     wheel-domain minimum is therefore always cur's front — no cross-level
//     scanning at pop time.
//   - per-slot FIFOs are seq-ordered by construction (a push always carries
//     the largest seq so far), and cascading preserves that because a
//     cascade only ever redistributes into a freshly exposed — empty —
//     child window. Sorting a drained slot with a stable insertion sort
//     under the full (at, seq) comparator therefore deterministically
//     re-establishes total order regardless of how many cascades an event
//     survived.
//   - the overflow heap's top may time-wise interleave with wheel events
//     (its horizon is unbounded), so popNext compares ring head, cur front,
//     and heap top under the exact (at, seq) comparator.
const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 4
	wheelShift0   = 12 // log2 of the level-0 slot width in picoseconds
	wheelWords    = wheelSlots / 64
)

//m3v:noalloc
func wheelShift(level int) uint {
	return uint(wheelShift0 + level*wheelSlotBits)
}

type wheelQueue struct {
	ring ringBuf // events at exactly the current time (see ringBuf)

	// cur is the sorted run currently being dispatched, consumed from
	// curHead. All wheel-domain events with at < lowBound live here.
	cur      []event
	curHead  int
	lowBound Time

	slots     [wheelLevels][wheelSlots][]event
	occ       [wheelLevels][wheelWords]uint64 // per-level slot occupancy bitmaps
	base      [wheelLevels]int64              // absolute window-start slot index per level
	slotCount int                             // events across all slots

	heap []event // overflow: events beyond level 3's window

	// free recycles drained slot backing arrays. As the clock advances, new
	// slot residues are touched constantly; without recycling, every fresh
	// residue would re-grow its slice from nil and the steady state would
	// never stop allocating. The pool is bounded by the maximum number of
	// concurrently occupied slots seen so far.
	free [][]event
}

func (q *wheelQueue) init() {
	// Windows start anchored at time zero; base is re-anchored whenever the
	// wheel drains empty (see schedule), which keeps level 3 from exhausting
	// its 17.6s span on long simulations.
}

//m3v:noalloc
func (q *wheelQueue) len() int {
	return q.ring.n + (len(q.cur) - q.curHead) + q.slotCount + len(q.heap)
}

// occupiedSlots counts the occupied wheel slots across all levels — a
// telemetry gauge for how spread out the pending-event horizon is (distinct
// from len, which counts events).
//
//m3v:noalloc
func (q *wheelQueue) occupiedSlots() int {
	n := 0
	for k := 0; k < wheelLevels; k++ {
		for _, w := range q.occ[k] {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// schedule inserts an event with at >= now.
//
//m3v:noalloc
func (q *wheelQueue) schedule(ev event, now Time) {
	if ev.at == now {
		q.ring.push(ev)
		return
	}
	if q.slotCount == 0 && q.curHead >= len(q.cur) {
		// The wheel proper is empty (the overflow heap may not be): re-anchor
		// every level's window at the current time so far-future progress
		// (long sims, idle gaps) always leaves a full span ahead. Anchoring
		// at now — not ev.at — keeps later near-term pushes on the fast
		// slot path even when a far timer arrives first.
		for k := 0; k < wheelLevels; k++ {
			q.base[k] = int64(now) >> wheelShift(k)
		}
		q.lowBound = Time(q.base[0]) << wheelShift0
	}
	if ev.at < q.lowBound {
		// Behind the already-drained horizon (but still >= now): merge into
		// the sorted run. Rare — only sub-slot-width delays land here.
		q.insertCur(ev)
		return
	}
	for k := 0; k < wheelLevels; k++ {
		if s := int64(ev.at) >> wheelShift(k); s < q.base[k]+wheelSlots {
			q.addSlot(k, s, ev)
			return
		}
	}
	heapPush(&q.heap, ev)
}

// insertCur merges an event into the sorted pending run. New events always
// carry the largest seq yet, so they sort after every queued event with the
// same timestamp: the binary search places them past all at <= ev.at.
//
//m3v:noalloc
func (q *wheelQueue) insertCur(ev event) {
	lo, hi := q.curHead, len(q.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.cur[mid].at <= ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	//m3vlint:ignore noalloc backing array growth is amortized; steady state reuses capacity
	q.cur = append(q.cur, event{})
	copy(q.cur[lo+1:], q.cur[lo:])
	q.cur[lo] = ev
}

//m3v:noalloc
func (q *wheelQueue) addSlot(k int, s int64, ev event) {
	i := int(s) & wheelMask
	sl := q.slots[k][i]
	if sl == nil {
		if n := len(q.free) - 1; n >= 0 {
			sl = q.free[n][:0]
			q.free[n] = nil
			q.free = q.free[:n]
		}
	}
	//m3vlint:ignore noalloc backing array growth is amortized; drained slot arrays are recycled via the free pool
	q.slots[k][i] = append(sl, ev)
	q.occ[k][i>>6] |= 1 << (uint(i) & 63)
	q.slotCount++
}

// recycle returns a drained slot's backing array to the free pool.
//
//m3v:noalloc
func (q *wheelQueue) recycle(sl []event) {
	if cap(sl) > 0 {
		//m3vlint:ignore noalloc pool growth is bounded by the peak number of concurrently occupied slots
		q.free = append(q.free, sl[:0])
	}
}

// firstSlot scans level k's occupancy bitmap for the first occupied slot at
// or after base[k] in window order, returning its absolute slot index.
//
//m3v:noalloc
func (q *wheelQueue) firstSlot(k int) (int64, bool) {
	start := int(q.base[k]) & wheelMask
	w0 := start >> 6
	if b := q.occ[k][w0] &^ (1<<(uint(start)&63) - 1); b != 0 {
		idx := w0<<6 + bits.TrailingZeros64(b)
		return q.base[k] + int64((idx-start)&wheelMask), true
	}
	for step := 1; step <= wheelWords; step++ {
		w := (w0 + step) & (wheelWords - 1)
		b := q.occ[k][w]
		if step == wheelWords {
			// Wrapped back to the first word: only the bits below start
			// belong to the tail of the window.
			b &= 1<<(uint(start)&63) - 1
		}
		if b != 0 {
			idx := w<<6 + bits.TrailingZeros64(b)
			return q.base[k] + int64((idx-start)&wheelMask), true
		}
	}
	return 0, false
}

// settle ensures cur holds the wheel's next sorted run. Reports whether the
// wheel domain (cur or slots) has any event.
//
//m3v:noalloc
func (q *wheelQueue) settle() bool {
	if q.curHead < len(q.cur) {
		return true
	}
	if q.curHead > 0 {
		q.cur = q.cur[:0]
		q.curHead = 0
	}
	for q.slotCount > 0 {
		if j, ok := q.firstSlot(0); ok {
			q.drainToCur(j)
			return true
		}
		// Level 0 exhausted: expose the next occupied coarse slot as the new
		// level-below window. One cascade per iteration, then rescan.
		for k := 1; k < wheelLevels; k++ {
			if j, ok := q.firstSlot(k); ok {
				q.cascade(k, j)
				break
			}
		}
	}
	return false
}

// drainToCur moves level-0 slot j into cur and sorts it. The slot's backing
// array and cur's swap roles, so steady state allocates nothing.
//
//m3v:noalloc
func (q *wheelQueue) drainToCur(j int64) {
	i := int(j) & wheelMask
	q.recycle(q.cur)
	q.cur = q.slots[0][i]
	q.curHead = 0
	q.slots[0][i] = nil
	q.occ[0][i>>6] &^= 1 << (uint(i) & 63)
	q.slotCount -= len(q.cur)
	sortEvents(q.cur)
	q.lowBound = Time(j+1) << wheelShift0
}

// cascade redistributes level-k slot j into level k-1, whose window is
// re-based to exactly cover slot j's span. The child window is provably
// empty at this point (level k-1 was scanned empty, and window monotonicity
// means no direct push could have landed in the newly exposed range), so
// per-slot FIFO seq order is preserved.
//
//m3v:noalloc
func (q *wheelQueue) cascade(k int, j int64) {
	q.base[k-1] = j << wheelSlotBits
	if lb := Time(j) << wheelShift(k); lb > q.lowBound {
		q.lowBound = lb
	}
	i := int(j) & wheelMask
	sl := q.slots[k][i]
	q.occ[k][i>>6] &^= 1 << (uint(i) & 63)
	q.slotCount -= len(sl)
	for idx := range sl {
		ev := sl[idx]
		sl[idx] = event{} // release the closure for GC
		q.addSlot(k-1, int64(ev.at)>>wheelShift(k-1), ev)
	}
	q.slots[k][i] = nil
	q.recycle(sl)
}

// sortEvents sorts a drained slot by (at, seq). Insertion sort: slots hold a
// handful of events (~4.1ns of simulated time each), the input is already
// seq-sorted (so equal-at runs are in order and the sort needs no stability
// tricks), and it avoids sort.Slice's closure allocation.
//
//m3v:noalloc
func sortEvents(evs []event) {
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i
		for j > 0 && evLess(&ev, &evs[j-1]) {
			evs[j] = evs[j-1]
			j--
		}
		evs[j] = ev
	}
}

// popNext removes and returns the event with the smallest (at, seq).
//
//m3v:noalloc
func (q *wheelQueue) popNext() (event, bool) {
	var min *event
	if q.settle() {
		min = &q.cur[q.curHead]
	}
	if q.ring.n > 0 {
		if h := &q.ring.buf[q.ring.head]; min == nil || evLess(h, min) {
			min = h
		}
	}
	if len(q.heap) > 0 {
		if h := &q.heap[0]; min == nil || evLess(h, min) {
			min = h
		}
	}
	switch {
	case min == nil:
		return event{}, false
	case len(q.heap) > 0 && min == &q.heap[0]:
		return heapPop(&q.heap), true
	case q.ring.n > 0 && min == &q.ring.buf[q.ring.head]:
		return q.ring.pop(), true
	default:
		return q.popCur(), true
	}
}

// popLimit pops the minimum event if its timestamp is <= limit.
//
//m3v:noalloc
func (q *wheelQueue) popLimit(limit Time) (event, int) {
	var min *event
	if q.settle() {
		min = &q.cur[q.curHead]
	}
	if q.ring.n > 0 {
		if h := &q.ring.buf[q.ring.head]; min == nil || evLess(h, min) {
			min = h
		}
	}
	if len(q.heap) > 0 {
		if h := &q.heap[0]; min == nil || evLess(h, min) {
			min = h
		}
	}
	switch {
	case min == nil:
		return event{}, popEmpty
	case min.at > limit:
		return event{}, popBeyond
	case len(q.heap) > 0 && min == &q.heap[0]:
		return heapPop(&q.heap), popOK
	case q.ring.n > 0 && min == &q.ring.buf[q.ring.head]:
		return q.ring.pop(), popOK
	default:
		return q.popCur(), popOK
	}
}

// popSeq pops and discards the minimum event iff it is exactly the event
// with the given seq and its timestamp is <= limit (the Sleep self-resume
// fast path; see Engine.popSelf and Proc.Sleep).
//
//m3v:noalloc
func (q *wheelQueue) popSeq(seq uint64, limit Time) (Time, bool) {
	var min *event
	if q.settle() {
		min = &q.cur[q.curHead]
	}
	if q.ring.n > 0 {
		if h := &q.ring.buf[q.ring.head]; min == nil || evLess(h, min) {
			min = h
		}
	}
	if len(q.heap) > 0 {
		if h := &q.heap[0]; min == nil || evLess(h, min) {
			min = h
		}
	}
	if min == nil || min.seq != seq || min.at > limit {
		return 0, false
	}
	at := min.at
	switch {
	case len(q.heap) > 0 && min == &q.heap[0]:
		heapPop(&q.heap)
	case q.ring.n > 0 && min == &q.ring.buf[q.ring.head]:
		q.ring.pop()
	default:
		q.popCur()
	}
	return at, true
}

//m3v:noalloc
func (q *wheelQueue) popCur() event {
	ev := q.cur[q.curHead]
	q.cur[q.curHead] = event{} // release the closure for GC
	q.curHead++
	return ev
}
