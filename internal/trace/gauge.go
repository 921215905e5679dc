package trace

import "sort"

// Gauge is a named instantaneous value: queue depths, runnable counts,
// occupancy. Unlike a Counter it moves in both directions; the sampler
// snapshots its current value at each tick instead of a delta.
//
// Like the other instruments it is always live and bumped with plain int64
// arithmetic; the engine's serialization makes it safe without atomics.
type Gauge struct {
	name string
	v    int64
}

// Name returns the gauge's registry name.
func (g *Gauge) Name() string { return g.name }

// Set stores v. A nil gauge ignores the write, so optional instruments need
// no guards.
//
//m3v:noalloc
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add adds n (which may be negative).
//
//m3v:noalloc
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v += n
}

// Inc adds one.
//
//m3v:noalloc
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
//
//m3v:noalloc
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value. A nil gauge reads as zero.
//
//m3v:noalloc
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Gauge returns the gauge with the given name, creating it at zero on first
// use. Names follow the same component.noun convention as counters.
func (m *Metrics) Gauge(name string) *Gauge {
	if g, ok := m.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	m.gauges[name] = g
	return g
}

// Gauges returns all gauges sorted by name.
func (m *Metrics) Gauges() []*Gauge {
	out := make([]*Gauge, 0, len(m.gauges))
	for _, g := range m.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// AddProbe registers fn to run immediately before each sampler tick. Probes
// let components publish derived state (pending events, router backlog,
// in-progress busy time) lazily: the gauge writes happen only when a sampler
// is armed and asks for them, so an unsampled run never pays for them.
// Probes run in registration order, which construction makes deterministic.
func (m *Metrics) AddProbe(fn func()) { m.probes = append(m.probes, fn) }

// RunProbes invokes every registered probe in order.
func (m *Metrics) RunProbes() {
	for _, fn := range m.probes {
		fn()
	}
}
