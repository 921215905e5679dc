package bench

import (
	"errors"

	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// ErrCancelled is returned by runners whose simulation was stopped through
// the canceler before completing (deadline, client disconnect).
var ErrCancelled = errors.New("bench: run cancelled")

// Params is the one configuration value every experiment driver takes. The
// zero value reproduces the paper's setup: the figure's own tile series, a
// perfect platform, no telemetry sampling. Together with the experiment ID
// it fully determines the simulation — the simulator is bit-deterministic,
// so equal params imply equal results (the property the serving layer's
// cache and coalescing rely on).
type Params struct {
	// Tiles overrides the tile-count series of experiments with a tile
	// sweep (fig9). Experiments with a fixed topology ignore it.
	Tiles []int
	// Fault arms deterministic fault injection on every simulated platform.
	Fault fault.Config
	// SampleInterval arms sim-time telemetry sampling on every simulated
	// platform; 0 keeps it off.
	SampleInterval sim.Time
}

// boot builds a platform from cfg with p's fault injection and sampling,
// attached to c so that a cancellation stops it. Every driver builds its
// platforms here.
func (p Params) boot(cfg core.Config, c *sim.Canceler) *core.System {
	cfg.Fault = p.Fault
	cfg.SampleInterval = p.SampleInterval
	sys := core.New(cfg)
	c.Attach(sys.Eng)
	return sys
}

// linuxEngine returns an engine for the Linux reference models, attached to
// c. The Linux models have no fault-injection points or platform probes, so
// Params do not apply to them.
func linuxEngine(c *sim.Canceler) *sim.Engine {
	eng := sim.NewEngine()
	c.Attach(eng)
	return eng
}

// finish returns the driver's result, or ErrCancelled if c stopped any of
// its simulations: a cancelled run's rows are meaningless.
func finish(r *Result, c *sim.Canceler) (*Result, error) {
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	return r, nil
}

// must unwraps a run made without a canceler for the exported Fig*
// functions, where the only possible error is a broken measurement.
func must(r *Result, err error) *Result {
	if err != nil {
		panic(err)
	}
	return r
}

// Experiment is one entry of the shared experiment registry: the single
// dispatch table behind both cmd/m3vbench and the m3vd serving layer.
type Experiment struct {
	// ID is the canonical name accepted by -run and the serving request
	// schema.
	ID string
	// Title matches the Result title the driver produces.
	Title string
	// Run executes the full figure/table reproduction.
	Run func(Params, *sim.Canceler) (*Result, error)
	// Servable executes the variant the serving layer runs; nil marks the
	// experiment CLI-only.
	Servable func(Params, *sim.Canceler) (*Result, error)
}

// Experiments returns the registry in canonical run order. It is an ordered
// slice rather than a map: bench is a determinism-checked package, and both
// consumers (-list output, the serving layer's experiment index) print it.
//
// Every runner honors the canceler (returning ErrCancelled) and is
// deterministic for equal params.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "vDTU area accounting (structural model)", Run: static(Table1)},
		{ID: "sloc", Title: "Software complexity (SLOC)", Run: sloc},
		{ID: "fig6", Title: "Local/remote no-op RPC vs Linux primitives", Run: fig6, Servable: serveFig6},
		{ID: "fig7", Title: "File read/write throughput (MiB/s)", Run: fig7},
		{ID: "fig8", Title: "UDP round-trip latency (us)", Run: fig8},
		{ID: "fig9", Title: "Scalability of tile multiplexing (runs/s)", Run: fig9, Servable: serveFig9},
		{ID: "voice", Title: "Voice assistant: compress+transmit after trigger", Run: voice},
		{ID: "fig10", Title: "Cloud service (YCSB on LSM store), runtime per run", Run: fig10},
		{ID: "ablation", Title: "Design-choice ablations", Run: ablations},
	}
}

// static adapts table1's driver, which simulates nothing, to the registry
// signature.
func static(f func() *Result) func(Params, *sim.Canceler) (*Result, error) {
	return func(Params, *sim.Canceler) (*Result, error) { return f(), nil }
}

// Lookup finds a registry entry by ID. A linear scan over the ordered
// slice: nine entries, and no map keeps the package free of ordering
// hazards.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
