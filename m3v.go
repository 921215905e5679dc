// Package m3v is a simulation-based reproduction of "Efficient and Scalable
// Core Multiplexing with M³v" (Asmussen et al., ASPLOS 2022).
//
// The package provides the public API over the full system:
//
//   - a deterministic discrete-event simulation of the tiled platform
//     (NoC, DRAM tiles, per-tile DTUs);
//   - the M³v operating system: the communication controller with
//     capability-based access control, TileMux (the tile-local multiplexer),
//     and the virtualized DTU (vDTU) with activity-tagged endpoints,
//     software-loaded TLB, and core-request interrupts;
//   - the M³x baseline (remote multiplexing through the controller with
//     slow-path forwarding), for comparison;
//   - OS services (extent-based file system, UDP network stack, pager) and
//     the paper's workloads (LSM key-value store, YCSB, a FLAC-style codec,
//     find/SQLite traceplayers).
//
// # Quick start
//
//	sys := m3v.NewSystem(m3v.FPGA())
//	defer sys.Shutdown()
//	tile := sys.Cfg.ProcessingTiles()[0]
//	handle := sys.SpawnRoot(tile, "hello", nil, func(a *m3v.Activity) {
//		a.Compute(1000) // burn 1000 core cycles
//	})
//	sys.Run(m3v.Second)
//	fmt.Println("exited:", handle.Done())
//
// Programs run as activities: they communicate through DTU gates, obtain
// resources via system calls to the controller, and are scheduled by the
// tile-local TileMux exactly as in the paper. See examples/ for complete
// scenarios; the paper's experiments are internal/bench's registry, run by
// cmd/m3vbench and served by cmd/m3vd.
//
// # Configuration
//
// The platform model is the paper's one machine: tiles on a 2x2 star-mesh
// NoC with uniform DRAM tiles. A Config chooses the tiles and NoC timing;
// beyond that, Config.Fault arms seeded fault injection at one uniform rate
// and Config.SampleInterval arms sim-time telemetry sampling (the command
// lines and m3vd accept intervals of 10 ns and up).
package m3v

import (
	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// Re-exported simulation types.
type (
	// Time is simulated time in picoseconds.
	Time = sim.Time
	// Clock is a core clock domain.
	Clock = sim.Clock
)

// Re-exported time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Re-exported platform types.
type (
	// System is a booted platform (tiles + controller + multiplexers).
	System = core.System
	// Config describes a platform to build.
	Config = core.Config
	// TileSpec describes one tile.
	TileSpec = core.TileSpec
	// Handle tracks a spawned root activity.
	Handle = core.Handle
	// TileID identifies a tile on the NoC.
	TileID = noc.TileID
)

// Re-exported activity types.
type (
	// Activity is the user-level runtime handle programs are written
	// against.
	Activity = activity.Activity
	// Program is an activity's code.
	Program = activity.Program
	// ChildRef describes a created child activity.
	ChildRef = activity.ChildRef
	// Session is an open service session.
	Session = activity.Session
	// EpID indexes DTU endpoints.
	EpID = dtu.EpID
	// Perm is a memory permission mask.
	Perm = dtu.Perm
)

// Memory permissions.
const (
	PermR  = dtu.PermR
	PermW  = dtu.PermW
	PermRW = dtu.PermRW
)

// NewSystem builds and boots a platform.
func NewSystem(cfg Config) *System { return core.New(cfg) }

// FPGA returns the paper's FPGA platform configuration (§4.1): a Rocket
// controller, one further Rocket and six BOOM user tiles, two DDR4 tiles.
func FPGA() Config { return core.FPGAConfig() }

// Gem5 returns the M³x-comparison configuration (§6.4): a controller plus n
// user tiles, all 3 GHz x86-like cores.
func Gem5(userTiles int) Config { return core.Gem5Config(userTiles) }

// MHz and GHz construct clock domains for custom tile specs.
func MHz(f int64) Clock { return sim.MHz(f) }

// GHz constructs a gigahertz clock.
func GHz(f int64) Clock { return sim.GHz(f) }

// Sel is a capability selector.
type Sel = cap.Sel

// TileSels returns the tile-capability selectors a root activity received:
// the rights it needs to create children on other tiles.
func TileSels(a *Activity) map[TileID]Sel { return core.TileSels(a) }
