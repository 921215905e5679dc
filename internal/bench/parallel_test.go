package bench

import (
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"m3v/internal/trace"
	"m3v/internal/traces"
)

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(orig(t))
	SetParallelism(4)
	if got := Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}
	SetParallelism(0) // clamps to 1
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism() after 0 = %d, want 1", got)
	}
}

// orig returns the entry parallelism so tests can restore it.
func orig(t *testing.T) int {
	t.Helper()
	return Parallelism()
}

func TestRunPointsOrderAndCoverage(t *testing.T) {
	defer SetParallelism(orig(t))
	for _, par := range []int{1, 8} {
		SetParallelism(par)
		var calls int32
		out := runPoints(100, func(i int) int {
			atomic.AddInt32(&calls, 1)
			return i * i
		})
		if calls != 100 {
			t.Fatalf("par=%d: %d calls, want 100", par, calls)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestForEachPointPanicPropagates(t *testing.T) {
	defer SetParallelism(orig(t))
	SetParallelism(4)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate to the caller")
		}
	}()
	forEachPoint(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

// sentinel is a distinct panic payload type: the serial path must hand it
// back unwrapped.
type sentinel struct{ msg string }

// TestForEachPointSerialPanicRawEarlyExit pins the workers<=1 contract the
// serving pool leans on: the panic value reaches the caller untouched (no
// recover on the path) and later points never run.
func TestForEachPointSerialPanicRawEarlyExit(t *testing.T) {
	defer SetParallelism(orig(t))
	SetParallelism(1)
	want := sentinel{"boom"}
	var ran []int
	defer func() {
		r := recover()
		if r != want {
			t.Errorf("serial panic value = %#v, want %#v (unwrapped)", r, want)
		}
		if len(ran) != 3 || ran[2] != 2 {
			t.Errorf("serial ran points %v, want [0 1 2] (early exit)", ran)
		}
	}()
	forEachPoint(5, func(i int) {
		ran = append(ran, i)
		if i == 2 {
			panic(want)
		}
	})
	t.Fatal("unreachable: panic must propagate")
}

// TestForEachPointClampedSerialPanic: with more workers than points the
// runner degrades to the serial path, so a single-point sweep panics raw
// even under SetParallelism(many).
func TestForEachPointClampedSerialPanic(t *testing.T) {
	defer SetParallelism(orig(t))
	SetParallelism(8)
	want := sentinel{"solo"}
	defer func() {
		if r := recover(); r != want {
			t.Errorf("clamped-serial panic value = %#v, want %#v", r, want)
		}
	}()
	forEachPoint(1, func(int) { panic(want) })
	t.Fatal("unreachable: panic must propagate")
}

// TestForEachPointParallelPanicWrapsAndCompletes pins the workers>1
// contract: every point is still attempted (no early exit — the pool
// drains), and the caller sees a first-panic-wins message naming the point.
func TestForEachPointParallelPanicWrapsAndCompletes(t *testing.T) {
	defer SetParallelism(orig(t))
	SetParallelism(4)
	var attempted int32
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "panicked: boom") ||
			!strings.HasPrefix(s, "bench: point ") {
			t.Errorf("parallel panic value = %#v, want wrapped \"bench: point N panicked: boom\"", r)
		}
		if got := atomic.LoadInt32(&attempted); got != 16 {
			t.Errorf("parallel attempted %d points, want all 16", got)
		}
	}()
	forEachPoint(16, func(i int) {
		atomic.AddInt32(&attempted, 1)
		if i == 5 || i == 11 {
			panic("boom")
		}
	})
	t.Fatal("unreachable: panic must propagate")
}

// TestFig9ParallelSerialEquivalence is the acceptance check of the sweep
// runner: the fully rendered Fig9 table must be byte-identical whether the
// points run serially or fanned across 8 workers. A reduced tile series
// keeps it affordable; it still covers both systems and both traces.
func TestFig9ParallelSerialEquivalence(t *testing.T) {
	defer SetParallelism(orig(t))
	fig9Small := func() string {
		r, err := fig9(Params{Tiles: []int{1, 2}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.String()
	}
	SetParallelism(1)
	serial := fig9Small()
	SetParallelism(8)
	parallel := fig9Small()
	if serial != parallel {
		t.Fatalf("fig9 tables differ between -parallel 1 and 8:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestFig10ParallelSerialEquivalence covers the other sweep shape (three
// systems per YCSB mix, rows assembled per mix after the sweep).
func TestFig10ParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	defer SetParallelism(orig(t))
	SetParallelism(1)
	serial := Fig10().String()
	SetParallelism(8)
	parallel := Fig10().String()
	if serial != parallel {
		t.Fatalf("fig10 tables differ between -parallel 1 and 8:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestParallelTraceHashDeterminism runs a sweep twice with trace collection
// on and compares the per-run trace hashes as multisets: under -parallel
// the registration order may differ, but the set of simulated runs — each
// hashed over its full span stream — must not.
func TestParallelTraceHashDeterminism(t *testing.T) {
	defer SetParallelism(orig(t))
	SetParallelism(8)
	sweep := func() []uint64 {
		trace.ClearRegistered()
		trace.SetAutoRegister(true, true)
		defer trace.SetAutoRegister(false, false)
		runPoints(4, func(i int) float64 {
			return Fig9Point(i >= 2, 1+i%2, traces.Find)
		})
		var hashes []uint64
		for _, r := range trace.Registered() {
			hashes = append(hashes, r.Hash())
		}
		sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
		return hashes
	}
	first := sweep()
	second := sweep()
	if len(first) == 0 {
		t.Fatal("no recorders registered during the sweep")
	}
	if len(first) != len(second) {
		t.Fatalf("run counts differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace hash multisets differ at %d: %#x vs %#x", i, first[i], second[i])
		}
	}
}
