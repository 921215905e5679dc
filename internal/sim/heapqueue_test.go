package sim

// heapQueue orders events by (at, seq): a 4-ary min-heap of value events
// plus the same-time ring. It was the engine's original scheduler and is now
// the test-only reference the timing wheel is compared against
// (FuzzQueueEquivalence, TestPopSeqEquivalence): its ordering follows
// directly from the heap invariant, so any dispatch-order divergence is the
// wheel's bug.
type heapQueue struct {
	heap []event
	ring ringBuf
}

func (q *heapQueue) len() int { return len(q.heap) + q.ring.n }

// schedule inserts an event with at >= now.
func (q *heapQueue) schedule(ev event, now Time) {
	if ev.at == now {
		q.ring.push(ev)
		return
	}
	heapPush(&q.heap, ev)
}

// popNext removes and returns the event with the smallest (at, seq).
func (q *heapQueue) popNext() (event, bool) {
	if q.ring.n == 0 {
		if len(q.heap) == 0 {
			return event{}, false
		}
		return heapPop(&q.heap), true
	}
	if len(q.heap) == 0 {
		return q.ring.pop(), true
	}
	// Both non-empty: full (at, seq) comparison. By the ring invariant the
	// heap wins ties on at, but comparing seq keeps this robust.
	if evLess(&q.heap[0], &q.ring.buf[q.ring.head]) {
		return heapPop(&q.heap), true
	}
	return q.ring.pop(), true
}

// popSeq pops and discards the minimum event iff it is exactly the event
// with the given seq and its timestamp is <= limit. This backs the Sleep
// self-resume fast path (see Proc.Sleep): the caller knows the event's fn
// is its own cached resume closure, so the event need not be returned.
func (q *heapQueue) popSeq(seq uint64, limit Time) (Time, bool) {
	var min *event
	if q.ring.n > 0 {
		min = &q.ring.buf[q.ring.head]
	}
	if len(q.heap) > 0 && (min == nil || evLess(&q.heap[0], min)) {
		min = &q.heap[0]
	}
	if min == nil || min.seq != seq || min.at > limit {
		return 0, false
	}
	at := min.at
	if len(q.heap) > 0 && min == &q.heap[0] {
		heapPop(&q.heap)
	} else {
		q.ring.pop()
	}
	return at, true
}

// popLimit pops the minimum event if its timestamp is <= limit.
func (q *heapQueue) popLimit(limit Time) (event, int) {
	var min *event
	if q.ring.n > 0 {
		min = &q.ring.buf[q.ring.head]
	}
	if len(q.heap) > 0 && (min == nil || evLess(&q.heap[0], min)) {
		min = &q.heap[0]
	}
	if min == nil {
		return event{}, popEmpty
	}
	if min.at > limit {
		return event{}, popBeyond
	}
	if len(q.heap) > 0 && min == &q.heap[0] {
		return heapPop(&q.heap), popOK
	}
	return q.ring.pop(), popOK
}
