package bench

import (
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/m3fs"
	"m3v/internal/sim"
	"m3v/internal/traces"
)

// Figure 9 parameters (paper §6.4): one traceplayer per tile connected to a
// file-system instance on the same tile, so every file-system call needs a
// context switch; 3 GHz x86-like cores (the gem5 setup); throughput in
// application runs per second after one warmup run.
const (
	fig9Warmup = 1
	fig9Runs   = 2
)

// fig9Tiles is the tile-count series of the figure; Params.Tiles
// overrides it.
var fig9Tiles = []int{1, 2, 4, 8, 12}

// playerResult records one traceplayer's timed window.
type playerResult struct {
	start, end sim.Time
	runs       int
}

// Fig9Point measures one data point of Figure 9: runs/s on n worker tiles.
func Fig9Point(m3xMode bool, n int, mkTrace func() *traces.Trace) float64 {
	v, err := fig9Run(Params{}, nil, m3xMode, n, mkTrace)
	if err != nil {
		panic(err)
	}
	return v
}

// fig9Run measures one (system, trace, tile-count) point of the figure. The
// canceler may stop the simulation from another goroutine (ErrCancelled);
// an uncancelled run whose players made no progress is an error.
func fig9Run(p Params, c *sim.Canceler, m3xMode bool, n int, mkTrace func() *traces.Trace) (float64, error) {
	cfg := core.Gem5Config(n + 1) // +1 for the orchestrator
	if m3xMode {
		cfg = cfg.WithM3x()
	}
	sys := p.boot(cfg, c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	rootTile := procs[0]
	workers := procs[1 : n+1]

	results := make([]*playerResult, n)
	for i := range results {
		results[i] = &playerResult{}
	}
	sys.SpawnRoot(rootTile, "fig9-root", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		var refs []activity.ChildRef
		for i, tile := range workers {
			service := fmt.Sprintf("m3fs%d", i)
			if _, err := m3fs.SpawnNamed(a, tiles[tile], tile, service, 8<<20); err != nil {
				panic(err)
			}
			ref, err := a.Spawn(tiles[tile], tile, fmt.Sprintf("player%d", i),
				map[string]interface{}{
					"service": service,
					"trace":   mkTrace(),
					"result":  results[i],
				}, tracePlayer)
			if err != nil {
				panic(err)
			}
			refs = append(refs, ref)
		}
		for _, ref := range refs {
			if _, err := a.SysWait(ref.ActSel); err != nil {
				panic(err)
			}
		}
	})
	sys.Run(3600 * sim.Second)
	if c.Cancelled() {
		return 0, ErrCancelled
	}

	var minStart, maxEnd sim.Time
	totalRuns := 0
	for i, res := range results {
		if res.runs == 0 {
			return 0, fmt.Errorf("fig9: player %d finished no runs", i)
		}
		if i == 0 || res.start < minStart {
			minStart = res.start
		}
		if res.end > maxEnd {
			maxEnd = res.end
		}
		totalRuns += res.runs
	}
	elapsed := maxEnd - minStart
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(totalRuns) / elapsed.Seconds(), nil
}

// tracePlayer replays its trace against the tile-local file system.
func tracePlayer(a *activity.Activity) {
	service := a.Env["service"].(string)
	trace := a.Env["trace"].(*traces.Trace)
	result := a.Env["result"].(*playerResult)
	c, err := m3fs.NewClientNamed(a, service)
	if err != nil {
		panic(err)
	}
	tgt := newM3FSTarget(a, c)
	if err := traces.Replay(trace.Setup, tgt); err != nil {
		panic(err)
	}
	for i := 0; i < fig9Warmup; i++ {
		if err := traces.Replay(trace.Run, tgt); err != nil {
			panic(err)
		}
	}
	result.start = a.Now()
	for i := 0; i < fig9Runs; i++ {
		if err := traces.Replay(trace.Run, tgt); err != nil {
			panic(err)
		}
		result.runs++
	}
	result.end = a.Now()
}

// fig9Paper holds the paper's Figure 9 data points (runs/s) where the text
// states them; the M³v series is read off the plot approximately.
var fig9Paper = map[string]float64{
	"M3x find 1":    45,
	"M3x find 2":    49,
	"M3x find 4":    94,
	"M3x SQLite 1":  49,
	"M3x SQLite 2":  82,
	"M3x SQLite 4":  86,
	"M3x SQLite 8":  68,
	"M3v find 1":    84,
	"M3v SQLite 1":  111,
	"M3v find 12":   1000,
	"M3v SQLite 12": 1200,
}

// Fig9 reproduces Figure 9: scalability of context-switch-heavy workloads
// under tile multiplexing, M³x vs M³v, 1-12 tiles. The (system, trace,
// tile-count) points are independent simulations and fan out across the
// sweep worker pool; rows keep the figure's order regardless of worker
// count.
func Fig9() *Result { return must(fig9(Params{}, nil)) }

func fig9(p Params, c *sim.Canceler) (*Result, error) {
	r, err := fig9Sweep(p, c, true)
	if err != nil {
		return nil, err
	}
	r.Note("shape: M3v scales almost linearly with tiles; M3x is capped by the single-threaded controller")
	r.Note("shape: at one tile, M3v achieves about 2x the throughput of M3x")
	return r, nil
}

// serveFig9 is the served fig9: the M³v points of both traces at one tile
// count, the first of p.Tiles clamped to the figure's 1..12 range.
func serveFig9(p Params, c *sim.Canceler) (*Result, error) {
	n := 1
	if len(p.Tiles) > 0 {
		n = min(max(p.Tiles[0], 1), 12)
	}
	p.Tiles = []int{n}
	return fig9Sweep(p, c, false)
}

// fig9Sweep measures every trace at every tile count of p.Tiles (the
// figure's series if empty): the M³v points, then the M³x points if
// withM3x.
func fig9Sweep(p Params, c *sim.Canceler, withM3x bool) (*Result, error) {
	tiles := p.Tiles
	if len(tiles) == 0 {
		tiles = fig9Tiles
	}
	type point struct {
		label string
		mk    func() *traces.Trace
		m3x   bool
		n     int
	}
	var pts []point
	for _, tr := range []struct {
		name string
		mk   func() *traces.Trace
	}{
		{"find", traces.Find},
		{"SQLite", traces.SQLite},
	} {
		for _, n := range tiles {
			pts = append(pts, point{fmt.Sprintf("M3v %s %d", tr.name, n), tr.mk, false, n})
		}
		if !withM3x {
			continue
		}
		for _, n := range tiles {
			// The paper could not run M³x reliably at high tile counts; we
			// can, and the line stays flat either way.
			pts = append(pts, point{fmt.Sprintf("M3x %s %d", tr.name, n), tr.mk, true, n})
		}
	}
	type result struct {
		v   float64
		err error
	}
	vals := runPoints(len(pts), func(i int) result {
		v, err := fig9Run(p, c, pts[i].m3x, pts[i].n, pts[i].mk)
		return result{v, err}
	})
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	r := &Result{ID: "fig9", Title: "Scalability of tile multiplexing (runs/s)"}
	for i, pt := range pts {
		if vals[i].err != nil {
			return nil, vals[i].err
		}
		r.Add(pt.label, vals[i].v, "runs/s", fig9Paper[pt.label])
	}
	return r, nil
}
