package bench

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"m3v/internal/fault"
	"m3v/internal/sim"
)

// TestRegistryShape pins the registry's canonical order, ID uniqueness,
// which experiments are servable, and the identity of table1's and sloc's
// results.
func TestRegistryShape(t *testing.T) {
	wantOrder := []string{"table1", "sloc", "fig6", "fig7", "fig8", "fig9", "voice", "fig10", "ablation"}
	reg := Experiments()
	if len(reg) != len(wantOrder) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(wantOrder))
	}
	seen := make(map[string]bool)
	for i, e := range reg {
		if e.ID != wantOrder[i] {
			t.Errorf("registry[%d].ID = %q, want %q", i, e.ID, wantOrder[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate registry ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %q has nil Run", e.ID)
		}
		if e.Title == "" {
			t.Errorf("experiment %q has empty Title", e.ID)
		}
	}
	for _, id := range []string{"fig6", "fig9"} {
		e, ok := Lookup(id)
		if !ok || e.Servable == nil {
			t.Errorf("experiment %q must be servable", id)
		}
	}
	if e, ok := Lookup("table1"); !ok || e.Servable != nil {
		t.Errorf("table1 unexpectedly servable: ok=%v", ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
	// The two experiments that simulate nothing carry their registry
	// identity; TestGoldenFigures checks the others.
	for _, id := range []string{"table1", "sloc"} {
		e, _ := Lookup(id)
		r, err := e.Run(Params{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkIdentity(t, e, r)
	}
}

// checkIdentity requires a result to carry the ID and title of the registry
// entry that produced it: the title m3vd lists under /experiments is the
// one the table prints and /run bodies serve.
func checkIdentity(t *testing.T, e Experiment, r *Result) {
	t.Helper()
	if r.ID != e.ID || r.Title != e.Title {
		t.Errorf("%s result identity = (%q, %q), want the registry's (%q, %q)", e.ID, r.ID, r.Title, e.ID, e.Title)
	}
}

// TestServableFig6Deterministic runs the servable fig6 twice with equal
// params and requires identical rendered tables — the property that makes
// the serving layer's result cache sound.
func TestServableFig6Deterministic(t *testing.T) {
	e, _ := Lookup("fig6")
	run := func() string {
		r, err := e.Servable(Params{}, sim.NewCanceler())
		if err != nil {
			t.Fatalf("servable fig6: %v", err)
		}
		checkIdentity(t, e, r)
		return r.String()
	}
	first := run()
	if second := run(); first != second {
		t.Errorf("servable fig6 not deterministic:\n%s\nvs\n%s", first, second)
	}
	if !strings.Contains(first, "M3v remote") || !strings.Contains(first, "M3v local") {
		t.Errorf("servable fig6 rows missing:\n%s", first)
	}
}

// TestServableFig9TileClamp checks the tile knob: an absent count defaults
// to 1 and the row labels carry the resolved count.
func TestServableFig9TileClamp(t *testing.T) {
	e, _ := Lookup("fig9")
	r, err := e.Servable(Params{}, sim.NewCanceler())
	if err != nil {
		t.Fatalf("servable fig9: %v", err)
	}
	checkIdentity(t, e, r)
	if len(r.Rows) != 2 {
		t.Fatalf("servable fig9 rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if !strings.HasSuffix(row.Label, " 1") {
			t.Errorf("row %q should carry the clamped tile count 1", row.Label)
		}
		if row.Value <= 0 {
			t.Errorf("row %q value = %g, want > 0", row.Label, row.Value)
		}
	}
}

// TestServableCancelledBeforeStart: a canceler cancelled before the runner
// is invoked must abort the run with ErrCancelled — engines attached after
// the cancellation execute zero events.
func TestServableCancelledBeforeStart(t *testing.T) {
	for _, id := range []string{"fig6", "fig9"} {
		e, _ := Lookup(id)
		c := sim.NewCanceler()
		c.Cancel()
		if _, err := e.Servable(Params{Tiles: []int{1}}, c); !errors.Is(err, ErrCancelled) {
			t.Errorf("%s with pre-cancelled canceler: err = %v, want ErrCancelled", id, err)
		}
	}
}

// TestServableCancelConcurrent cancels a servable run from another
// goroutine while it executes — the -race gate for the serving layer's
// deadline/disconnect path. The run may legitimately win the race and
// complete; anything other than success or ErrCancelled is a failure.
func TestServableCancelConcurrent(t *testing.T) {
	e, _ := Lookup("fig9")
	c := sim.NewCanceler()
	done := make(chan error, 1)
	go func() {
		_, err := e.Servable(Params{Tiles: []int{1}}, c)
		done <- err
	}()
	c.Cancel()
	if err := <-done; err != nil && !errors.Is(err, ErrCancelled) {
		t.Errorf("concurrent cancel: err = %v, want nil or ErrCancelled", err)
	}
}

// TestRunCancelledBeforeStart calls every runner that simulates anything
// with an already-cancelled canceler. Each must return ErrCancelled
// without executing a single event, which pins that every platform and
// Linux-model engine of every driver is attached to the canceler.
func TestRunCancelledBeforeStart(t *testing.T) {
	c := sim.NewCanceler()
	c.Cancel()
	p := Params{Tiles: []int{1}}
	for _, e := range Experiments() {
		if e.ID == "table1" || e.ID == "sloc" {
			continue // structural models: nothing to cancel
		}
		runners := []func(Params, *sim.Canceler) (*Result, error){e.Run, e.Servable}
		for i, run := range runners {
			if run == nil {
				continue
			}
			kind := [...]string{"Run", "Servable"}[i]
			ev0 := sim.TotalEventsExecuted()
			if _, err := run(p, c); !errors.Is(err, ErrCancelled) {
				t.Errorf("%s %s: err = %v, want ErrCancelled", e.ID, kind, err)
			}
			if n := sim.TotalEventsExecuted() - ev0; n != 0 {
				t.Errorf("%s %s: executed %d events after cancellation, want 0", e.ID, kind, n)
			}
		}
	}
}

// TestConcurrentParamsIsolation runs differently parameterized experiments
// at the same time — the m3vd worker situation — and requires each result
// to equal the same call made alone: configuration travels in the Params
// value, so concurrent runs cannot see each other's settings. Run under
// -race in CI.
func TestConcurrentParamsIsolation(t *testing.T) {
	fig6, _ := Lookup("fig6")
	fig9, _ := Lookup("fig9")
	calls := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"fig6", func() (*Result, error) { return fig6.Servable(Params{}, nil) }},
		{"fig6 faults", func() (*Result, error) {
			return fig6.Servable(Params{Fault: fault.Config{Seed: 7, Rate: 0.05}}, nil)
		}},
		{"fig9", func() (*Result, error) { return fig9.Servable(Params{Tiles: []int{1}}, nil) }},
	}
	render := func(i int) string {
		r, err := calls[i].run()
		if err != nil {
			t.Errorf("%s: %v", calls[i].name, err)
			return ""
		}
		return r.String()
	}
	alone := make([]string, len(calls))
	for i := range calls {
		alone[i] = render(i)
	}
	if alone[0] == alone[1] {
		t.Fatal("fault injection did not change the fig6 result: Params.Fault not applied")
	}
	together := make([]string, len(calls))
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			together[i] = render(i)
		}(i)
	}
	wg.Wait()
	for i := range calls {
		if together[i] != alone[i] {
			t.Errorf("%s run concurrently differs from the same call alone:\n%s\nvs\n%s",
				calls[i].name, together[i], alone[i])
		}
	}
}
