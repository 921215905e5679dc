package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"m3v/internal/bench"
	"m3v/internal/core"
	"m3v/internal/traces"
)

// fig9Point is one of the eight Fig9Point calls of the fig9-mux pass.
type fig9Point struct {
	label string
	m3x   bool
	tiles int
	trace func() *traces.Trace
}

// fig9Points are the calls golden.json pins for fig9 (tile series 1,2),
// in the figure's row order: per trace, M3v then M3x, one and two tiles.
var fig9Points = func() []fig9Point {
	var out []fig9Point
	for _, tr := range []struct {
		name string
		mk   func() *traces.Trace
	}{{"find", traces.Find}, {"SQLite", traces.SQLite}} {
		for _, sys := range []string{"M3v", "M3x"} {
			for _, n := range []int{1, 2} {
				out = append(out, fig9Point{fmt.Sprintf("%s %s %d", sys, tr.name, n), sys == "M3x", n, tr.mk})
			}
		}
	}
	return out
}()

// fig9PaperRunsPerSec are the paper's published Figure 9 values (runs/s,
// §6.4) for the rows of the pass that have one.
var fig9PaperRunsPerSec = rows{
	"M3v find 1":   84,
	"M3v SQLite 1": 111,
	"M3x find 1":   45,
	"M3x find 2":   49,
	"M3x SQLite 1": 49,
	"M3x SQLite 2": 82,
}

// fig9Mux is the switch-heavy workload: every traceplayer file-system call
// needs a TileMux switch (M3v) or a controller-mediated remote switch and
// slow-path forward (M3x).
type fig9Mux struct {
	root    string
	golden  rows
	prev    rows                 // rows of the previous pass
	pointMs map[string][]float64 // host ms per call of the regular passes, by label
}

func (f *fig9Mux) setup() error {
	g, err := loadGolden(f.root)
	if err != nil {
		return err
	}
	f.golden = g["fig9"]
	if len(f.golden) != len(fig9Points) {
		return fmt.Errorf("golden fig9 has %d rows, want %d", len(f.golden), len(fig9Points))
	}
	f.prev, f.pointMs = nil, make(map[string][]float64)
	bench.SetParallelism(1) // sweeps run serially: one simulation at a time
	bootOnce(core.Gem5Config(3).WithM3x())
	return nil
}

func (f *fig9Mux) pass(o passOpts) passResult {
	var r passResult
	got := make(rows, len(fig9Points))
	for _, p := range fig9Points {
		id := o.sp.begin(o.parent, "bench.Fig9Point", p.label)
		t0 := time.Now()
		v, err := callFig9Point(p)
		ms := msSince(t0)
		o.sp.end(id)
		if o.afterOp != nil {
			o.afterOp()
		}
		r.attempted++
		r.lat = append(r.lat, ms)
		if !o.fixed {
			f.pointMs[p.label] = append(f.pointMs[p.label], ms)
		}
		got[p.label] = v
		switch {
		case err != nil:
			r.fail("fig9 %s: %v", p.label, err)
		case v != f.golden[p.label]:
			r.fail("fig9 %s = %v, golden %v", p.label, v, f.golden[p.label])
		case f.prev != nil && v != f.prev[p.label]:
			r.fail("fig9 %s = %v, previous pass %v", p.label, v, f.prev[p.label])
		default:
			r.completed++
		}
	}
	f.prev = got
	return r
}

// callFig9Point runs one point, turning a driver panic into an error.
func callFig9Point(p fig9Point) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return bench.Fig9Point(p.m3x, p.tiles, p.trace), nil
}

func (f *fig9Mux) finish() []string { return nil }

func (f *fig9Mux) extras(traced bool) []extra {
	var out []extra
	if f.prev != nil {
		out = append(out, extra{"paper_err_pct", paperErrPct(f.prev, fig9PaperRunsPerSec), "%",
			fmt.Sprintf("mean |measured-paper|/paper over the %d rows with a published value", len(fig9PaperRunsPerSec))})
	}
	if traced {
		for _, p := range fig9Points {
			out = append(out, extra{"bench.point_ms." + p.label, median(f.pointMs[p.label]), "ms",
				fmt.Sprintf("median of %d calls in the untraced passes", len(f.pointMs[p.label]))})
		}
	}
	return out
}

func (f *fig9Mux) close() {}

// paperErrPct is the mean absolute relative error, in percent, of got
// against the published values, over the rows that have one.
func paperErrPct(got, paper rows) float64 {
	labels := make([]string, 0, len(paper))
	for l := range paper {
		labels = append(labels, l)
	}
	sort.Strings(labels) // fixed summation order
	sum := 0.0
	for _, l := range labels {
		sum += math.Abs(got[l]-paper[l]) / paper[l]
	}
	return 100 * sum / float64(len(labels))
}

// fig10YCSB is the data-path workload: the LSM store, m3fs extents, the
// block cache, the UDP netstack and the Linux model, with comparatively
// little process hand-off.
type fig10YCSB struct {
	root   string
	golden rows
	prev   rows
	sims   int // simulations per Fig10 call: one per (mix, system)
}

func (f *fig10YCSB) setup() error {
	g, err := loadGolden(f.root)
	if err != nil {
		return err
	}
	f.golden = g["fig10"]
	sims := make(map[string]bool)
	for l := range f.golden {
		sims[fig10Sim(l)] = true
	}
	f.sims = len(sims)
	if f.sims == 0 {
		return fmt.Errorf("golden has no fig10 rows")
	}
	f.prev = nil
	bench.SetParallelism(1)
	bootOnce(core.FPGAConfig())
	return nil
}

func (f *fig10YCSB) pass(o passOpts) passResult {
	r := passResult{attempted: f.sims}
	id := o.sp.begin(o.parent, "bench.Fig10", "")
	t0 := time.Now()
	got, err := callFig10()
	r.lat = append(r.lat, msSince(t0))
	o.sp.end(id)
	if o.afterOp != nil {
		o.afterOp()
	}
	if err != nil {
		r.failed = f.sims
		r.errs = append(r.errs, fmt.Sprintf("fig10: %v (all %d simulations failed)", err, f.sims))
		return r
	}
	bad := make(map[string]bool)
	for _, l := range diffRows(got, f.golden) {
		bad[fig10Sim(l)] = true
		r.errs = append(r.errs, "fig10 vs golden: "+describeDiff(l, got, f.golden))
	}
	if f.prev != nil {
		for _, l := range diffRows(got, f.prev) {
			bad[fig10Sim(l)] = true
			r.errs = append(r.errs, "fig10 vs previous pass: "+describeDiff(l, got, f.prev))
		}
	}
	r.failed = len(bad)
	r.completed = f.sims - len(bad)
	f.prev = got
	return r
}

// callFig10 runs the figure, turning a driver panic into an error.
func callFig10() (got rows, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res := bench.Fig10()
	got = make(rows, len(res.Rows))
	for _, m := range res.Rows {
		got[m.Label] = m.Value
	}
	return got, nil
}

func (f *fig10YCSB) finish() []string { return nil }

func (f *fig10YCSB) extras(bool) []extra {
	return []extra{{"paper_err_pct", math.NaN(), "%",
		"fig10 has no published values: its model is unvalidated"}}
}

func (f *fig10YCSB) close() {}

// bootOnce builds and tears down one platform, so lazily initialized state
// of the layers is in place before the first timed operation.
func bootOnce(cfg core.Config) {
	core.New(cfg).Shutdown()
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
