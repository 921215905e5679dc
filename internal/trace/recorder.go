// Package trace provides the simulator's structured tracing and metrics
// layer. Components record spans — begin/end-stamped intervals keyed by
// (tile, component, name) — into a Recorder; a registry of named counters
// and histograms subsumes the ad-hoc counter fields the components used to
// carry.
//
// The span stream is disabled by default and designed to be free when off:
// every emit helper is a method on *Recorder that returns immediately (with
// zero allocations) when the recorder is nil or disabled. Metrics, by
// contrast, are always live — they are plain int64 adds and replace the
// counters tests and reports already depend on.
//
// The package deliberately does not import m3v/internal/sim: timestamps are
// raw picosecond int64s, so the simulation engine itself can own a Recorder
// without an import cycle.
package trace

import "sync"

// Component identifies the subsystem that emitted a span.
type Component uint8

// Components, in stable order (the order is part of the trace format: the
// Chrome exporter uses it as the thread id within a tile's process).
const (
	CompEngine Component = iota
	CompNoC
	CompDTU
	CompTileMux
	CompKernel
	CompActivity
	CompFault
	numComponents
)

var componentNames = [numComponents]string{
	CompEngine:   "engine",
	CompNoC:      "noc",
	CompDTU:      "dtu",
	CompTileMux:  "tilemux",
	CompKernel:   "kernel",
	CompActivity: "activity",
	CompFault:    "fault",
}

// String returns the component's short name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "?"
}

// Recorder collects the span stream of one simulation engine and owns its
// metrics registry. The span stream is disabled by default; Enable turns it
// on. Metrics are always live.
//
// All emit helpers are safe on a nil receiver and cost only the
// enabled-check when tracing is off: no allocation, no formatting.
//
// A Recorder is not safe for concurrent use; the simulation engine's strict
// one-at-a-time hand-off provides the necessary serialization.
type Recorder struct {
	enabled  bool
	spans    []Span
	nextFlow uint64
	metrics  *Metrics
	sampler  *Sampler
}

// NewRecorder returns a recorder with an empty metrics registry and the
// span stream disabled. If collection has been requested globally (see
// SetAutoRegister), the recorder registers itself and honours the global
// span-stream default.
func NewRecorder() *Recorder {
	r := &Recorder{metrics: NewMetrics()}
	globalMu.Lock()
	if autoRegister {
		registered = append(registered, r)
		r.enabled = defaultEnabled
	}
	globalMu.Unlock()
	return r
}

// Enable turns the span stream on.
func (r *Recorder) Enable() { r.enabled = true }

// Disable turns the span stream off. Already-recorded spans are kept.
func (r *Recorder) Disable() { r.enabled = false }

// Enabled reports whether spans are being recorded. A nil recorder is
// permanently disabled.
//
//m3v:noalloc
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Metrics returns the recorder's registry (never nil on a non-nil recorder).
func (r *Recorder) Metrics() *Metrics { return r.metrics }

// SetSampler attaches the sampler feeding off this recorder's registry, so
// exporters reached through the recorder (chrome, series files) can find the
// sampled timelines.
func (r *Recorder) SetSampler(s *Sampler) { r.sampler = s }

// Sampler returns the attached sampler, or nil when the run is unsampled.
func (r *Recorder) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler
}

// Reset drops all recorded spans (metrics and the flow-ID sequence are
// untouched). Outstanding SpanRefs are invalidated.
func (r *Recorder) Reset() {
	if r != nil {
		r.spans = r.spans[:0]
	}
}

// --- global collection ------------------------------------------------------
//
// Command-line tools that cannot reach into library-created engines (the
// benchmark harness builds a fresh System per experiment) opt into global
// collection: every Recorder created afterwards registers itself here and
// can be exported or summarized at the end of the run.

var (
	globalMu       sync.Mutex
	autoRegister   bool
	defaultEnabled bool
	registered     []*Recorder
)

// SetAutoRegister makes every subsequently created Recorder register itself
// for Registered. With events set, those recorders also start with the
// span stream enabled.
func SetAutoRegister(on, events bool) {
	globalMu.Lock()
	autoRegister = on
	defaultEnabled = events
	globalMu.Unlock()
}

// Registered returns the recorders created since SetAutoRegister(true, ...),
// in creation order.
func Registered() []*Recorder {
	globalMu.Lock()
	defer globalMu.Unlock()
	return append([]*Recorder(nil), registered...)
}

// ClearRegistered empties the global registry, so a new collection starts
// from no recorders.
func ClearRegistered() {
	globalMu.Lock()
	registered = nil
	globalMu.Unlock()
}
