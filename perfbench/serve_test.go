package main

import (
	"math"
	"reflect"
	"testing"
)

func TestMixGenDeterministicPerSeed(t *testing.T) {
	a := newMixGen(7, 0).batch(500)
	b := newMixGen(7, 0).batch(500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and stream gave different request streams")
	}
	if reflect.DeepEqual(a, newMixGen(8, 0).batch(500)) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	if reflect.DeepEqual(a, newMixGen(7, 1).batch(500)) {
		t.Error("streams 0 and 1 of one seed gave the same request stream")
	}
	// Drawing in batches continues the same stream.
	g := newMixGen(7, 0)
	if c := append(g.batch(200), g.batch(300)...); !reflect.DeepEqual(a, c) {
		t.Error("batch(200)+batch(300) differs from batch(500)")
	}
}

func TestMixGenHitMissSplit(t *testing.T) {
	const n = 20000
	for _, seed := range []int64{1, 2, 3} {
		faults := map[uint64]bool{}
		hot := make([]int, mixHot)
		misses := 0
		for _, stream := range []int64{0, 1} {
			for _, r := range newMixGen(seed, stream).batch(n) {
				if r.hot < 0 {
					misses++
					if faults[r.fault] {
						t.Fatalf("seed %d: fault seed %d repeated: a fresh request would hit", seed, r.fault)
					}
					faults[r.fault] = true
					continue
				}
				if r.hot >= mixHot {
					t.Fatalf("seed %d: hot index %d out of range", seed, r.hot)
				}
				hot[r.hot]++
			}
		}
		if share := float64(misses) / (2 * n); math.Abs(share-mixMissShare) > 0.01 {
			t.Errorf("seed %d: miss share %.4f, want %.2f", seed, share, mixMissShare)
		}
		for i, c := range hot {
			if c == 0 {
				t.Errorf("seed %d: hot request %d never drawn", seed, i)
			}
		}
	}
}

func TestMixReqRequests(t *testing.T) {
	hit := mixReq{hot: 2}.request()
	if hit.Experiment != "fig6" || hit.Tiles != 3 || hit.FaultRate != 0 {
		t.Errorf("hot request = %+v, want fault-free fig6 with tiles 3", hit)
	}
	miss := mixReq{hot: -1, fault: 42}.request()
	if miss.FaultSeed != 42 || miss.FaultRate != mixFaultRate {
		t.Errorf("fresh request = %+v, want fault seed 42 at rate %v", miss, mixFaultRate)
	}
}

// TestServeMixPass drives two fixed serve-mix passes against a real server,
// with spans on: every request must succeed, the second pass must send the
// same hits and as many fresh misses as the first, and the server's
// counters must agree with what was sent. Run with -race, it also covers
// the state the two clients share.
func TestServeMixPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs about a hundred fig6 simulations")
	}
	s := &serveMix{root: "..", seed: 1}
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	defer s.close()
	sp := newSpans("test")
	for i := 0; i < 2; i++ {
		r := s.pass(passOpts{sp: sp, fixed: true})
		if r.failed != 0 || r.completed != mixFixedBatch {
			t.Fatalf("pass %d: %d of %d completed, failures %v", i, r.completed, r.attempted, r.errs)
		}
	}
	if errs := s.finish(); len(errs) != 0 {
		t.Errorf("finish: %v", errs)
	}
	if n := len(sp.all()); n != 2*mixFixedBatch {
		t.Errorf("%d request spans, want %d", n, 2*mixFixedBatch)
	}
	if len(s.missMs) != 0 {
		t.Errorf("fixed passes recorded %d miss times, want none", len(s.missMs))
	}
}

func TestFixedBatchesRepeatPatternWithFreshMisses(t *testing.T) {
	s := &serveMix{seed: 3, fixedNext: newMixGen(3, 1).next}
	a, b := s.fixedBatch(), s.fixedBatch()
	if !reflect.DeepEqual(a, newMixGen(3, 1).batch(mixFixedBatch)) {
		t.Error("first fixed batch differs from stream 1")
	}
	faults := map[uint64]bool{}
	for i := range a {
		if a[i].hot != b[i].hot {
			t.Fatalf("request %d: hot %d then %d, want the same pattern", i, a[i].hot, b[i].hot)
		}
		for _, r := range []mixReq{a[i], b[i]} {
			if r.hot < 0 {
				if faults[r.fault] {
					t.Fatalf("fault seed %d repeated across fixed batches", r.fault)
				}
				faults[r.fault] = true
			}
		}
	}
}
