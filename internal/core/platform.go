// Package core assembles the full M³v system: the tiled platform (paper
// Figure 4), the controller, the TileMux instances, and the endpoint wiring
// between them. It is the package the examples and benchmark harness build
// on.
package core

import (
	"fmt"

	"m3v/internal/dtu"
	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// TileKind classifies a tile.
type TileKind uint8

// Tile kinds.
const (
	KindController TileKind = iota
	KindProcessing
	KindMemory
	KindAccel
)

// TileSpec describes one tile of the platform.
type TileSpec struct {
	Name    string
	Kind    TileKind
	Clock   sim.Clock
	MemSize uint64 // memory tiles only
}

// Config describes a platform.
type Config struct {
	Name  string
	Tiles []TileSpec
	NoC   noc.Config
	Mem   func(size uint64) mem.Config
	// BaselineM3x builds the M³x baseline instead of M³v: plain DTUs with
	// RCTMux on the tiles and remote multiplexing in the controller.
	BaselineM3x bool
	// Fault selects deterministic fault injection (see internal/fault).
	// The zero value — or any config with all rates zero — builds the
	// perfect platform.
	Fault fault.Config
	// Sample arms sim-time telemetry sampling (see sim.StartSampling). The
	// zero value keeps sampling off.
	Sample SampleConfig
}

// SampleConfig configures the sim-time telemetry sampler.
type SampleConfig struct {
	// Interval is the sampling period in sim time; 0 disables sampling.
	Interval sim.Time
	// Cap bounds each series' ring buffer (0 = trace.DefaultSampleCap).
	Cap int
}

// Enabled reports whether this config arms the sampler.
func (sc SampleConfig) Enabled() bool { return sc.Interval > 0 }

// WithM3x returns a copy of the config that builds the M³x baseline.
func (c Config) WithM3x() Config {
	c.BaselineM3x = true
	c.Name += "-m3x"
	return c
}

// FPGAConfig mirrors the paper's hardware platform (§4.1): eight RISC-V
// processing tiles (the controller on a Rocket core at 100 MHz, one further
// Rocket, six BOOM cores at 80 MHz) and two DDR4 memory tiles. The debug
// tile is omitted — it "is only involved in benchmark setup and does not
// contribute to any measurements".
func FPGAConfig() Config {
	tiles := []TileSpec{
		{Name: "rocket-ctrl", Kind: KindController, Clock: sim.MHz(100)},
		{Name: "rocket0", Kind: KindProcessing, Clock: sim.MHz(100)},
	}
	for i := 0; i < 6; i++ {
		tiles = append(tiles, TileSpec{
			Name: fmt.Sprintf("boom%d", i), Kind: KindProcessing, Clock: sim.MHz(80),
		})
	}
	tiles = append(tiles,
		TileSpec{Name: "ddr0", Kind: KindMemory, MemSize: 512 << 20},
		TileSpec{Name: "ddr1", Kind: KindMemory, MemSize: 512 << 20},
	)
	return Config{Name: "fpga", Tiles: tiles, NoC: noc.DefaultConfig(), Mem: mem.DefaultConfig}
}

// Gem5Config mirrors the M³x comparison setup (§6.4): a controller plus n
// user tiles, each a 3 GHz out-of-order x86-like core, and one memory tile.
func Gem5Config(userTiles int) Config {
	tiles := []TileSpec{{Name: "x86-ctrl", Kind: KindController, Clock: sim.GHz(3)}}
	for i := 0; i < userTiles; i++ {
		tiles = append(tiles, TileSpec{
			Name: fmt.Sprintf("x86-%d", i), Kind: KindProcessing, Clock: sim.GHz(3),
		})
	}
	tiles = append(tiles, TileSpec{Name: "dram", Kind: KindMemory, MemSize: 1 << 30})
	return Config{Name: "gem5", Tiles: tiles, NoC: noc.DefaultConfig(), Mem: mem.DefaultConfig}
}

// Tile is one built tile.
type Tile struct {
	ID   noc.TileID
	Spec TileSpec
	DTU  *dtu.DTU
	DRAM *mem.Memory // memory tiles
}

// ProcessingTiles returns the ids of the user processing tiles of a config
// (excluding the controller).
func (c Config) ProcessingTiles() []noc.TileID {
	var out []noc.TileID
	for i, t := range c.Tiles {
		if t.Kind == KindProcessing {
			out = append(out, noc.TileID(i))
		}
	}
	return out
}

// MemoryTiles returns the ids of the memory tiles.
func (c Config) MemoryTiles() []noc.TileID {
	var out []noc.TileID
	for i, t := range c.Tiles {
		if t.Kind == KindMemory {
			out = append(out, noc.TileID(i))
		}
	}
	return out
}

// ControllerTile returns the id of the controller tile.
func (c Config) ControllerTile() noc.TileID {
	for i, t := range c.Tiles {
		if t.Kind == KindController {
			return noc.TileID(i)
		}
	}
	panic("core: config has no controller tile")
}
