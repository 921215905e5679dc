package trace

import (
	"math/bits"
	"sort"
)

// Metrics is a registry of named counters and histograms. Unlike the event
// stream it is always live: components create their instruments once at
// construction time and bump them with plain int64 arithmetic, which
// replaces the loose counter fields (DTU.Sends, Mux.CtxSwitches, ...) the
// simulator used to scatter across structs.
//
// Not safe for concurrent use; the engine serializes all model code.
type Metrics struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	// probes publish derived gauge state on demand; see AddProbe (gauge.go).
	probes []func()
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it at zero on
// first use. Names are dotted paths, conventionally "tileNN.component.what".
func (m *Metrics) Counter(name string) *Counter {
	if c, ok := m.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	m.counters[name] = c
	return c
}

// Histogram returns the histogram with the given name, creating it empty on
// first use.
func (m *Metrics) Histogram(name string) *Histogram {
	if h, ok := m.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	m.hists[name] = h
	return h
}

// Counters returns all counters sorted by name.
func (m *Metrics) Counters() []*Counter {
	out := make([]*Counter, 0, len(m.counters))
	for _, c := range m.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Histograms returns all histograms sorted by name.
func (m *Metrics) Histograms() []*Histogram {
	out := make([]*Histogram, 0, len(m.hists))
	for _, h := range m.hists {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Snapshot returns the current registry state by name: counter and gauge
// values under their own names, and each histogram's observation count and
// sum under "<name>.count" / "<name>.sum". Instrument names are unique
// module-wide (enforced by the metricname analyzer), so the keys cannot
// collide. For deterministic iteration use the sorted accessors
// (Counters/Histograms/Gauges) instead of ranging over the map.
func (m *Metrics) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(m.counters)+len(m.gauges)+2*len(m.hists))
	for name, c := range m.counters {
		out[name] = c.v
	}
	for name, g := range m.gauges {
		out[name] = g.v
	}
	for name, h := range m.hists {
		out[name+".count"] = h.count
		out[name+".sum"] = h.sum
	}
	return out
}

// Counter is a monotonically named int64.
type Counter struct {
	name string
	v    int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
//
//m3v:noalloc
func (c *Counter) Inc() { c.v++ }

// Add adds n.
//
//m3v:noalloc
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count. A nil counter reads as zero, so optional
// instruments need no guards.
//
//m3v:noalloc
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram sub-bucket resolution: each power-of-two bucket is split into
// 2^histSubBits linear cells, bounding Quantile's relative error by
// 1/2^histSubBits (HDR-histogram style) without storing raw samples.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits
)

// Histogram accumulates int64 observations (typically picosecond durations)
// into power-of-two buckets plus count/sum/min/max, cheap enough to stay on
// even when event tracing is off. A log-linear sub-bucket grid underneath
// the coarse buckets turns it into a bounded-error quantile sketch: Quantile
// reports any percentile with relative error at most 1/16, in fixed memory.
// The grid (8.3 KB, most of the histogram) exists only once the histogram
// holds a nonzero value: the first nonzero Observe, or a Merge of one,
// allocates it, so an instrument a run never feeds costs a few hundred bytes.
type Histogram struct {
	name     string
	count    int64
	sum      int64
	min, max int64
	// buckets[i] counts observations v with bitlen(v) == i, i.e. bucket 0
	// holds v == 0 and bucket i holds 2^(i-1) <= v < 2^i.
	buckets [65]int64
	// sub[i] splits bucket i (i >= 1) into histSubCount linear cells of
	// width 2^(i-1)/histSubCount each (cells are exact for i <= histSubBits,
	// where the bucket is narrower than the grid). Nil while every
	// observation is zero; see grid.
	sub *histGrid
}

// histGrid is the sub-bucket grid of a Histogram.
type histGrid [65][histSubCount]int64

// grid returns h's sub-bucket grid, allocating it on first use. It is left
// un-annotated: the allocation happens once per histogram.
func (h *Histogram) grid() *histGrid {
	if h.sub == nil {
		//m3vlint:ignore noalloc once per histogram: the first nonzero observation allocates the grid, every later one reuses it
		h.sub = new(histGrid)
	}
	return h.sub
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. Negative values are clamped to zero.
//
//m3v:noalloc
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := bits.Len64(uint64(v))
	h.buckets[b]++
	if b > 0 {
		h.grid()[b][histSubIdx(v, b)]++
	}
}

// histSubIdx maps a value in bucket b (bitlen(v) == b, b >= 1) to its linear
// sub-bucket cell.
//
//m3v:noalloc
func histSubIdx(v int64, b int) int {
	lo := int64(1) << uint(b-1)
	if b <= histSubBits {
		return int(v - lo) // bucket narrower than the grid: exact cells
	}
	return int((v - lo) >> uint(b-1-histSubBits))
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean reports the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min reports the smallest observation, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max reports the largest observation, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Buckets returns the non-empty power-of-two buckets as (upper bound,
// count) pairs in ascending order.
func (h *Histogram) Buckets() (bounds []int64, counts []int64) {
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		var hi int64
		if i == 0 {
			hi = 0
		} else if i >= 63 {
			hi = 1<<63 - 1
		} else {
			hi = 1<<uint(i) - 1
		}
		bounds = append(bounds, hi)
		counts = append(counts, n)
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (q in [0,1]) from the log-linear
// sub-bucket sketch. The estimate is the upper edge of the cell holding the
// rank, clamped to [Min, Max], so the relative error is bounded by the cell
// width: at most 1/histSubCount (6.25%). q <= 0 returns Min, q >= 1 returns
// Max, and an empty (or nil) histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	seen := h.buckets[0]
	if seen >= rank {
		return 0
	}
	// A nonzero bucket b >= 1 holds nonzero values, so the grid exists.
	for b := 1; b <= 64; b++ {
		if h.buckets[b] == 0 {
			continue
		}
		for s := 0; s < histSubCount; s++ {
			n := h.sub[b][s]
			if n == 0 {
				continue
			}
			seen += n
			if seen < rank {
				continue
			}
			if b >= 63 {
				// Cell edges would overflow int64; such durations are
				// far beyond any simulated time anyway.
				return h.max
			}
			lo := int64(1) << uint(b-1)
			width := int64(1)
			if b > histSubBits {
				width = int64(1) << uint(b-1-histSubBits)
			}
			v := lo + int64(s+1)*width - 1 // upper edge of the cell
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds o's observations into h, for aggregating per-tile histograms
// across tiles or runs. Merging preserves the sketch: quantiles of the
// merged histogram carry the same error bound. A nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if o.sub == nil {
		return // o holds only zeros
	}
	g := h.grid()
	for i := range g {
		for j := range g[i] {
			g[i][j] += o.sub[i][j]
		}
	}
}
