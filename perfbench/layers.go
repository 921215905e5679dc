package main

// spec names one reported metric as BENCHMARK.json lists it.
type spec struct {
	name, unit, better string
}

// endToEndSpecs are the metrics of a --trace 0 run: what a user of the
// simulator or of m3vd sees. Every workload reports all of them.
var endToEndSpecs = []spec{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
}

// hostGroups are the CPU-profile groups of host.<group>_pct: the layer
// packages, then the Go runtime split into allocation, garbage collection
// and the rest (scheduler, channels, locks), then everything else.
var hostGroups = []string{
	"sim", "noc", "dtu", "tilemux", "kernel", "m3x", "m3fs", "kvs", "serve",
	"runtime", "alloc", "gc", "other",
}

// simCountSpecs are the simulated-work counts of the traced pass. A change
// that only speeds up the simulator must leave every one identical.
var simCountSpecs = []spec{
	{"sim.events", "count", "lower"},
	{"noc.packets", "count", "lower"},
	{"noc.bytes", "bytes", "lower"},
	{"dtu.cmds", "count", "lower"},
	{"dtu.p99_cmd_ps", "sim_ps", "lower"},
	{"tilemux.switches", "count", "lower"},
	{"tilemux.irqs", "count", "lower"},
	{"tilemux.p99_switch_ps", "sim_ps", "lower"},
	{"kernel.syscalls", "count", "lower"},
	{"m3x.forwards", "count", "lower"},
	{"m3x.remote_switches", "count", "lower"},
	{"serve.hits", "count", "higher"},
	{"serve.misses", "count", "lower"},
	{"serve.coalesced", "count", "lower"},
	{"serve.rejects", "count", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
}

// perLayerSpecs are the metrics of a --trace 1 run, in report order: the
// layer probes, the simulated-work counts, and the host-cost breakdown.
var perLayerSpecs = func() []spec {
	var out []spec
	for _, p := range probes {
		out = append(out,
			spec{p.name + "_ns", "ns", "lower"},
			spec{p.name + "_allocs", "count", "lower"},
			spec{p.name + "_events", "count", "lower"})
	}
	out = append(out, simCountSpecs...)
	out = append(out,
		spec{"sim.host_ns_per_event", "ns", "lower"},
		spec{"sim.allocs_per_event", "count", "lower"},
		spec{"go.alloc_mb", "MB", "lower"},
		spec{"go.gc_cycles", "count", "lower"})
	for _, g := range hostGroups {
		out = append(out, spec{"host." + g + "_pct", "%", "lower"})
	}
	return append(out, spec{"trace.overhead_pct", "%", "lower"})
}()
