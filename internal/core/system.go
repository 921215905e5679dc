package core

import (
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/fault"
	"m3v/internal/kernel"
	"m3v/internal/m3x"
	"m3v/internal/mem"
	"m3v/internal/nic"
	"m3v/internal/noc"
	"m3v/internal/sim"
	"m3v/internal/tilemux"
	"m3v/internal/trace"
)

// tileMuxDRAM is the per-tile DRAM region reserved for TileMux (paper §4.3:
// "the first endpoint is predefined by the controller to a per-tile region
// in DRAM for TileMux").
const tileMuxDRAM = 1 << 20

// System is a booted M³v platform.
type System struct {
	Cfg   Config
	Eng   *sim.Engine
	Net   *noc.Network
	Tiles []*Tile
	Kern  *kernel.Kernel
	Muxes map[noc.TileID]*tilemux.Mux

	// Fault is the system's fault injector, nil when injection is disabled
	// (the default): a nil injector leaves every component's behavior
	// bit-for-bit identical to a build without fault support.
	Fault *fault.Injector

	// M³x baseline state (nil on M³v systems).
	RCTs   map[noc.TileID]*m3x.RCTMux
	Driver *m3x.Driver

	pendingRoots int
	rootHandles  map[uint32]*Handle
}

// Handle tracks a root activity spawned with SpawnRoot.
type Handle struct {
	Name string
	ID   uint32
	done bool
	code int32
}

// Done reports whether the root activity exited.
func (h *Handle) Done() bool { return h.done }

// Code reports the exit code (valid once Done).
func (h *Handle) Code() int32 { return h.code }

// New builds and boots a platform: tiles, NoC, DRAM, controller, TileMux
// instances, and all boot-time endpoint wiring.
func New(cfg Config) *System {
	eng := sim.NewEngine()
	topo := noc.StarMesh{NumTiles: len(cfg.Tiles)}
	net := noc.New(eng, topo, noc.DefaultConfig())
	s := &System{
		Cfg:         cfg,
		Eng:         eng,
		Net:         net,
		Muxes:       make(map[noc.TileID]*tilemux.Mux),
		RCTs:        make(map[noc.TileID]*m3x.RCTMux),
		rootHandles: make(map[uint32]*Handle),
	}

	ctrl := cfg.ControllerTile()
	// Build tiles. On the M³x baseline, processing tiles carry plain DTUs.
	for i, spec := range cfg.Tiles {
		id := noc.TileID(i)
		t := &Tile{ID: id, Spec: spec}
		switch spec.Kind {
		case KindMemory:
			t.DRAM = mem.New(eng, mem.DefaultConfig(spec.MemSize))
			t.DTU = dtu.NewMemory(eng, net, id, t.DRAM)
		case KindController:
			t.DTU = dtu.New(eng, net, id, spec.Clock, false)
		default:
			t.DTU = dtu.New(eng, net, id, spec.Clock, !cfg.BaselineM3x)
		}
		s.Tiles = append(s.Tiles, t)
	}

	// Controller.
	ctrlTile := s.Tiles[ctrl]
	s.Kern = kernel.New(eng, ctrlTile.DTU, cfg.Tiles[ctrl].Clock, s.rootExited)
	mustEp(ctrlTile.DTU.ConfigureLocal(kernel.EpSyscall, dtu.RecvEP(dtu.ActInvalid, 64, 512)))
	mustEp(ctrlTile.DTU.ConfigureLocal(kernel.EpNotify, dtu.RecvEP(dtu.ActInvalid, 16, 64)))
	mustEp(ctrlTile.DTU.ConfigureLocal(kernel.EpMuxReply, dtu.RecvEP(dtu.ActInvalid, 1, 256)))
	for _, id := range cfg.MemoryTiles() {
		s.Kern.RegisterDRAM(id, cfg.Tiles[id].MemSize)
	}

	// Processing tiles: the multiplexer plus the kernel<->mux channels.
	if cfg.BaselineM3x {
		s.Driver = m3x.NewDriver(eng, s.Kern)
	}
	nextCtrlEp := kernel.EpFirstMuxSgate
	for _, id := range cfg.ProcessingTiles() {
		t := s.Tiles[id]
		mustEp(t.DTU.ConfigureLocal(tilemux.EpKernRgate, dtu.RecvEP(dtu.ActTileMux, 4, 256)))
		mustEp(t.DTU.ConfigureLocal(tilemux.EpKernSgate,
			dtu.SendEP(dtu.ActTileMux, ctrl, kernel.EpNotify, 0, 2, 64)))
		muxSgate := nextCtrlEp
		nextCtrlEp++
		mustEp(ctrlTile.DTU.ConfigureLocal(muxSgate,
			dtu.SendEP(dtu.ActInvalid, id, tilemux.EpKernRgate, 0, 1, 256)))
		s.Kern.RegisterTile(id, muxSgate)
		if cfg.BaselineM3x {
			s.RCTs[id] = m3x.New(eng, t.Spec.Clock, t.DTU)
		} else {
			mustEp(t.DTU.ConfigureLocal(tilemux.EpPfRgate, dtu.RecvEP(dtu.ActTileMux, 8, 64)))
			s.Muxes[id] = tilemux.New(eng, t.Spec.Clock, t.DTU)
		}
		// PMP endpoint 0: the per-tile TileMux region in DRAM.
		mt, off, err := s.Kern.AllocDRAM(tileMuxDRAM)
		if err != nil {
			panic(err)
		}
		mustEp(t.DTU.ConfigureLocal(0, dtu.MemEP(dtu.ActTileMux, mt, off, tileMuxDRAM, dtu.PermRW)))
	}

	// Fault injection: one injector per system, attached to every component
	// with an injection point. Built only when a nonzero rate is configured,
	// so fault-free systems carry no injector, no fault.* counters, and no
	// behavioral difference. Muxes are visited via the deterministic
	// ProcessingTiles order, not the map.
	if cfg.Fault.Enabled() {
		inj := fault.New(eng, cfg.Fault)
		s.Fault = inj
		net.SetInjector(inj)
		for _, t := range s.Tiles {
			t.DTU.SetInjector(inj)
		}
		for _, id := range cfg.ProcessingTiles() {
			if m := s.Muxes[id]; m != nil {
				m.SetInjector(inj)
			}
		}
	}

	// Telemetry sampling: armed last so the components' probes are all
	// registered, disabled by default (no recurring event, no gauges beyond
	// the instruments above).
	if cfg.SampleInterval > 0 {
		eng.StartSampling(cfg.SampleInterval)
	}

	return s
}

// rootExited marks a root activity done and stops the simulation once every
// root has exited.
func (s *System) rootExited(id uint32, code int32) {
	if h := s.rootHandles[id]; h != nil && !h.done {
		h.done = true
		h.code = code
		s.pendingRoots--
		if s.pendingRoots == 0 {
			s.Eng.Stop()
		}
	}
}

func mustEp(err error) {
	if err != nil {
		panic(fmt.Sprintf("core: boot endpoint configuration failed: %v", err))
	}
}

// DTU returns a tile's DTU.
func (s *System) DTU(id noc.TileID) *dtu.DTU { return s.Tiles[id].DTU }

// Load implements activity.Loader: it spawns the child's program process
// and binds it to the tile's multiplexer.
func (s *System) Load(ref activity.ChildRef, name string, prog activity.Program) {
	s.Eng.Spawn(name, func(p *sim.Proc) {
		var x activity.Exec
		if s.Cfg.BaselineM3x {
			rct := s.RCTs[ref.Tile]
			if rct == nil {
				panic(fmt.Sprintf("core: no RCTMux on tile %d", ref.Tile))
			}
			x = rct.Attach(dtu.ActID(ref.ID), p)
		} else {
			mux := s.Muxes[ref.Tile]
			if mux == nil {
				panic(fmt.Sprintf("core: no multiplexer on tile %d", ref.Tile))
			}
			x = mux.Attach(dtu.ActID(ref.ID), p)
		}
		a := &activity.Activity{
			Name:     name,
			ID:       ref.ID,
			Local:    dtu.ActID(ref.ID),
			Tile:     ref.Tile,
			D:        s.Tiles[ref.Tile].DTU,
			X:        x,
			SysSgate: ref.SysSgate,
			SysRgate: ref.SysRgate,
			Loader:   s,
			Env:      map[string]interface{}{},
		}
		prog(a)
		a.Exit(0)
	})
}

// SpawnRoot boots a root activity on the given processing tile. The root
// receives tile capabilities for every processing tile in
// Env["tiles"] (map[noc.TileID]cap.Sel) and creates everything else through
// system calls. The simulation stops once every root has exited.
func (s *System) SpawnRoot(tile noc.TileID, name string, env map[string]interface{}, prog activity.Program) *Handle {
	h := &Handle{Name: name}
	s.pendingRoots++
	s.Eng.Spawn("boot:"+name, func(p *sim.Proc) {
		act, err := s.Kern.CreateActivity(p, tile, name)
		if err != nil {
			panic(fmt.Sprintf("core: boot of %q failed: %v", name, err))
		}
		h.ID = act.ID
		s.rootHandles[act.ID] = h
		tileSels := make(map[noc.TileID]cap.Sel)
		for _, id := range s.Cfg.ProcessingTiles() {
			tileSels[id] = s.Kern.GrantTile(act, id)
		}
		s.Load(activity.ChildRef{
			ID: act.ID, Tile: tile,
			SysSgate: act.SyscallSgate, SysRgate: act.SyscallRgate,
		}, name, func(a *activity.Activity) {
			for k, v := range env {
				a.Env[k] = v
			}
			a.Env["tiles"] = tileSels
			prog(a)
		})
		if err := s.Kern.StartActivity(p, act); err != nil {
			panic(fmt.Sprintf("core: start of %q failed: %v", name, err))
		}
	})
	return h
}

// TileSels extracts the tile-capability map a root activity received.
func TileSels(a *activity.Activity) map[noc.TileID]cap.Sel {
	return a.Env["tiles"].(map[noc.TileID]cap.Sel)
}

// NewNIC attaches a NIC model to a processing tile (the FPGA platform has
// one Ethernet-equipped tile) and returns the device. WireNICIrq connects
// its interrupt to the driver activity once that is known.
func (s *System) NewNIC(tile noc.TileID) *nic.Device {
	return nic.New(s.Eng)
}

// WireNICIrq routes the NIC's interrupt to the given activity through the
// tile's TileMux.
func (s *System) WireNICIrq(dev *nic.Device, tile noc.TileID, actID uint32) {
	if mux := s.Muxes[tile]; mux != nil {
		dev.SetIRQ(func() { mux.RaiseExternal(dtu.ActID(actID)) })
	}
}

// Tracer returns the platform's span recorder. The metrics registry is
// always live; call Enable to also record the span stream.
func (s *System) Tracer() *trace.Recorder { return s.Eng.Tracer() }

// Run drives the simulation until all roots exited or the limit is reached,
// and returns the simulated end time.
func (s *System) Run(limit sim.Time) sim.Time {
	return s.Eng.RunUntil(s.Eng.Now() + limit)
}

// Shutdown unwinds all simulation processes. The system is unusable
// afterwards.
func (s *System) Shutdown() { s.Eng.Shutdown() }
