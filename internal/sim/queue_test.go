package sim

import "testing"

// TestQueuePopSeq pins the queue half of the Sleep self-resume fast path:
// popSeq consumes an event only when it is the queue's true (at, seq)
// minimum and lies within the limit, and otherwise leaves the queue as it
// was. Events scheduled with at == now enter the same-time ring, the rest
// the heap, so the cases cover both structures and their tie.
func TestQueuePopSeq(t *testing.T) {
	type sched struct {
		at  Time
		seq uint64
		now Time // clock at scheduling time
	}
	type try struct {
		seq   uint64
		limit Time
		ok    bool
	}
	for _, tc := range []struct {
		name   string
		queued []sched
		tries  []try
	}{
		{"empty", nil, []try{{1, MaxTime, false}}},
		{"true minimum only",
			[]sched{{5 * Nanosecond, 1, 0}, {3 * Nanosecond, 2, 0}},
			[]try{{1, MaxTime, false}, {2, MaxTime, true}, {1, MaxTime, true}}},
		{"equal times go by seq",
			[]sched{{5 * Nanosecond, 1, 0}, {5 * Nanosecond, 2, 0}},
			[]try{{2, MaxTime, false}, {1, MaxTime, true}, {2, MaxTime, true}}},
		{"beyond the limit",
			[]sched{{5 * Nanosecond, 1, 0}},
			[]try{{1, 4 * Nanosecond, false}, {1, 5 * Nanosecond, true}}},
		{"ring head ties heap top",
			[]sched{{5 * Nanosecond, 1, 0}, {5 * Nanosecond, 2, 5 * Nanosecond}},
			[]try{{2, MaxTime, false}, {1, MaxTime, true}, {2, 5 * Nanosecond, true}}},
		{"ring head before heap top",
			[]sched{{9 * Nanosecond, 1, 0}, {5 * Nanosecond, 2, 5 * Nanosecond}},
			[]try{{1, MaxTime, false}, {2, 5 * Nanosecond, true}, {1, 8 * Nanosecond, false}, {1, MaxTime, true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var q queue
			at := map[uint64]Time{}
			for _, s := range tc.queued {
				q.schedule(event{at: s.at, seq: s.seq, fn: func() {}}, s.now)
				at[s.seq] = s.at
			}
			for i, tr := range tc.tries {
				n := q.len()
				got, ok := q.popSeq(tr.seq, tr.limit)
				if ok != tr.ok {
					t.Fatalf("try %d: popSeq(%d, %v) ok = %v, want %v", i, tr.seq, tr.limit, ok, tr.ok)
				}
				switch {
				case ok && (got != at[tr.seq] || q.len() != n-1):
					t.Fatalf("try %d: popSeq(%d) = %v leaving %d events, want %v leaving %d",
						i, tr.seq, got, q.len(), at[tr.seq], n-1)
				case !ok && q.len() != n:
					t.Fatalf("try %d: refused popSeq(%d) changed the queue length %d -> %d", i, tr.seq, n, q.len())
				}
			}
			if q.len() != 0 {
				t.Fatalf("%d events left queued", q.len())
			}
		})
	}
}
