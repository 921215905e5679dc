package scenarios

import (
	"testing"

	"m3v/internal/fault"
)

// chaosRates is the escalation ladder of the harness: injection rates up to
// the 10% acceptance bar.
var chaosRates = []float64{0.01, 0.05, 0.10}

// TestRPCLivenessAndConservation runs the cross-tile and tile-local RPC
// scenarios under escalating fault rates: every round must still be served
// (the retry machinery recovers all injected drops/delays/dups/command
// failures) and the NoC conservation invariants must hold.
func TestRPCLivenessAndConservation(t *testing.T) {
	const rounds = 20
	for _, shared := range []bool{false, true} {
		for _, rate := range chaosRates {
			o := RunRPC(shared, rounds, fault.Config{Seed: 42, Rate: rate})
			if !o.Completed {
				t.Errorf("shared=%v rate=%g: run did not complete (%d/%d rounds served)",
					shared, rate, o.Rounds, rounds)
			}
			if !o.Conserved() {
				t.Errorf("shared=%v rate=%g: conservation violated: sends=%d delivered=%d dropped=%d dups=%d discards=%d",
					shared, rate, o.Sends, o.Delivered, o.Dropped, o.DupInjected, o.DupDiscarded)
			}
		}
	}
}

// TestRPCFaultsActuallyInjected guards the harness against vacuity: at 10%
// the cross-tile run must observe real injected faults, and recovery must be
// lossless (no terminal drops with unbounded NoC retries, no send giveups).
func TestRPCFaultsActuallyInjected(t *testing.T) {
	o := RunRPC(false, 20, fault.Config{Seed: 42, Rate: 0.10})
	if o.DropsInjected == 0 && o.DupInjected == 0 && o.CmdRetries == 0 && o.MuxStalls == 0 {
		t.Fatalf("10%% chaos run observed no faults at all: %+v", o)
	}
	if o.Dropped != 0 {
		t.Errorf("terminal drops = %d, want 0 (default NoC config retries forever)", o.Dropped)
	}
	if o.CmdGiveups != 0 {
		t.Errorf("command giveups = %d, want 0", o.CmdGiveups)
	}
}

// TestRPCDeterminism asserts the core determinism contract: the same seed
// produces bit-identical runs (equal trace hashes), and a different
// seed produces a different schedule.
func TestRPCDeterminism(t *testing.T) {
	a := RunRPC(false, 15, fault.Config{Seed: 7, Rate: 0.05})
	b := RunRPC(false, 15, fault.Config{Seed: 7, Rate: 0.05})
	if a.Hash != b.Hash {
		t.Errorf("same seed, different runs: %#x vs %#x", a.Hash, b.Hash)
	}
	if a.SimTime != b.SimTime {
		t.Errorf("same seed, different end times: %v vs %v", a.SimTime, b.SimTime)
	}
	c := RunRPC(false, 15, fault.Config{Seed: 8, Rate: 0.05})
	if c.Hash == a.Hash {
		t.Errorf("different seeds produced identical trace hashes %#x", a.Hash)
	}
}

// TestDisabledInjectionMatchesBaseline asserts the zero-cost-when-off
// contract at the scenario level: a run with a zero fault config is
// bit-identical to one with a rate-0 config (the injector is never built in
// either case).
func TestDisabledInjectionMatchesBaseline(t *testing.T) {
	base := RunRPC(false, 10, fault.Config{})
	zero := RunRPC(false, 10, fault.Config{Seed: 99, Rate: 0})
	if base.Hash != zero.Hash {
		t.Errorf("rate-0 run differs from zero-config run: %#x vs %#x", base.Hash, zero.Hash)
	}
	if !base.Completed || !zero.Completed {
		t.Error("baseline runs did not complete")
	}
	if base.DropsInjected != 0 || base.DupInjected != 0 {
		t.Errorf("baseline run observed injected faults: %+v", base)
	}
}

// TestM3xForwardSurvivesFaults runs the fig9-shaped co-location on the M³x
// baseline under faults: every RPC leg takes the controller forward slow
// path, and dropped or delayed forward legs must be retried to completion.
func TestM3xForwardSurvivesFaults(t *testing.T) {
	const rounds = 6
	for _, rate := range chaosRates {
		o := RunM3xForward(rounds, fault.Config{Seed: 42, Rate: rate})
		if !o.Completed {
			t.Errorf("rate=%g: M3x forward run did not complete (%d/%d replies)",
				rate, o.Rounds, rounds)
		}
		if !o.Conserved() {
			t.Errorf("rate=%g: conservation violated: sends=%d delivered=%d dropped=%d dups=%d discards=%d",
				rate, o.Sends, o.Delivered, o.Dropped, o.DupInjected, o.DupDiscarded)
		}
		if o.Forwards < int64(rounds) {
			t.Errorf("rate=%g: forwards = %d, want >= %d (slow path per RPC leg)",
				rate, o.Forwards, rounds)
		}
	}
}

// TestM3xForwardDeterminism pins the forward slow path's schedule under the
// same seed.
func TestM3xForwardDeterminism(t *testing.T) {
	a := RunM3xForward(4, fault.Config{Seed: 11, Rate: 0.05})
	b := RunM3xForward(4, fault.Config{Seed: 11, Rate: 0.05})
	if a.Hash != b.Hash {
		t.Errorf("same seed, different M3x runs: %#x vs %#x", a.Hash, b.Hash)
	}
}
