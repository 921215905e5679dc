package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SeriesKind says how a series' values were produced.
type SeriesKind uint8

const (
	// SeriesGauge samples snapshot a gauge's instantaneous value.
	SeriesGauge SeriesKind = iota
	// SeriesDelta samples record a counter's increase since the previous
	// tick (a rate, in counts per interval).
	SeriesDelta
)

// String returns the kind's wire name ("gauge" or "delta").
func (k SeriesKind) String() string {
	if k == SeriesDelta {
		return "delta"
	}
	return "gauge"
}

// Series is one named telemetry timeline: (sim time, value) pairs in a ring
// buffer of fixed capacity, so a long run keeps the most recent window
// instead of growing without bound.
type Series struct {
	name string
	kind SeriesKind
	t    []int64 // sim time of each sample, ps
	v    []int64
	head int // ring start when full
	n    int
}

// Name returns the instrument name the series tracks.
func (s *Series) Name() string { return s.name }

// Kind reports whether samples are gauge snapshots or counter deltas.
func (s *Series) Kind() SeriesKind { return s.kind }

// Len reports the number of retained samples.
func (s *Series) Len() int { return s.n }

// Sample returns the i-th retained sample in time order (0 is the oldest).
func (s *Series) Sample(i int) (tPs, v int64) {
	j := (s.head + i) % len(s.t)
	return s.t[j], s.v[j]
}

// push appends one sample, evicting the oldest when full.
//
//m3v:noalloc
func (s *Series) push(tPs, v int64) {
	if s.n < len(s.t) {
		j := (s.head + s.n) % len(s.t)
		s.t[j], s.v[j] = tPs, v
		s.n++
		return
	}
	s.t[s.head], s.v[s.head] = tPs, v
	s.head = (s.head + 1) % len(s.t)
}

// DefaultSampleCap is the per-series ring capacity.
const DefaultSampleCap = 4096

// Sampler turns a Metrics registry into time series. It knows nothing about
// the event queue: the sim engine (or a test) calls Sample at whatever
// cadence it schedules, passing the current sim time. Each tick first runs
// the registry's probes so lazily-published gauges are fresh, then records
// every gauge's value and every counter's delta since the previous tick.
//
// Instruments created after the first tick join the series set at the tick
// that first sees them; their counter baseline starts at that tick's value.
type Sampler struct {
	m          *Metrics
	intervalPs int64
	ticks      int64
	series     map[string]*Series
	lastCtr    map[string]int64
}

// NewSampler creates a sampler over m with the given sim-time interval. Each
// series keeps the most recent DefaultSampleCap samples.
func NewSampler(m *Metrics, intervalPs int64) *Sampler {
	return &Sampler{
		m:          m,
		intervalPs: intervalPs,
		series:     make(map[string]*Series),
		lastCtr:    make(map[string]int64),
	}
}

// Interval returns the sampling interval in sim picoseconds.
func (s *Sampler) Interval() int64 { return s.intervalPs }

// Samples reports the number of ticks taken so far.
func (s *Sampler) Samples() int64 { return s.ticks }

// Sample takes one tick at sim time nowPs: run probes, snapshot gauges,
// record counter deltas. The sorted accessors make the series map fill in a
// deterministic order, so two equal runs produce byte-identical exports.
func (s *Sampler) Sample(nowPs int64) {
	s.m.RunProbes()
	for _, g := range s.m.Gauges() {
		s.get(g.Name(), SeriesGauge).push(nowPs, g.Value())
	}
	for _, c := range s.m.Counters() {
		v := c.Value()
		last, seen := s.lastCtr[c.Name()]
		if !seen {
			last = 0
			if s.ticks > 0 {
				// Counter born mid-run: baseline at its current value so the
				// first delta is not the whole history.
				last = v
			}
		}
		s.lastCtr[c.Name()] = v
		s.get(c.Name(), SeriesDelta).push(nowPs, v-last)
	}
	s.ticks++
}

func (s *Sampler) get(name string, kind SeriesKind) *Series {
	if sr, ok := s.series[name]; ok {
		return sr
	}
	sr := &Series{
		name: name,
		kind: kind,
		t:    make([]int64, DefaultSampleCap),
		v:    make([]int64, DefaultSampleCap),
	}
	s.series[name] = sr
	return sr
}

// Series returns all series sorted by name.
func (s *Sampler) Series() []*Series {
	out := make([]*Series, 0, len(s.series))
	for _, sr := range s.series {
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// seriesSchema identifies the telemetry series file format.
const seriesSchema = "m3vseries/v1"

// SeriesFile is a telemetry export (schema "m3vseries/v1"), as written by
// WriteSeries and read back by ReadSeries for report tools: one run per
// traced recorder, each with its sampled series and end-of-run histogram
// quantiles.
type SeriesFile struct {
	Schema     string          `json:"schema"`
	IntervalPs int64           `json:"interval_ps"`
	Runs       []SeriesRunData `json:"runs"`
}

// SeriesRunData is one run's series and histogram summaries.
type SeriesRunData struct {
	Name       string       `json:"name,omitempty"`
	Series     []SeriesData `json:"series"`
	Histograms []HistData   `json:"histograms,omitempty"`
}

// SeriesData is one exported timeline.
type SeriesData struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	TPs  []int64 `json:"t_ps"`
	V    []int64 `json:"v"`
}

// HistData is one exported histogram summary with its quantiles.
type HistData struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	Sum    int64  `json:"sum"`
	Min    int64  `json:"min"`
	Max    int64  `json:"max"`
	P50Ps  int64  `json:"p50_ps"`
	P90Ps  int64  `json:"p90_ps"`
	P99Ps  int64  `json:"p99_ps"`
	P999Ps int64  `json:"p999_ps"`
}

// WriteSeries exports every recorder's sampled series and histogram
// quantiles as one JSON document (schema "m3vseries/v1"). Recorders without
// a sampler contribute their histograms only; the interval is taken from the
// first sampler found.
func WriteSeries(w io.Writer, recs []*Recorder) error {
	f := SeriesFile{Schema: seriesSchema}
	for _, r := range recs {
		var run SeriesRunData
		if sp := r.Sampler(); sp != nil {
			if f.IntervalPs == 0 {
				f.IntervalPs = sp.Interval()
			}
			for _, sr := range sp.Series() {
				rec := SeriesData{
					Name: sr.name,
					Kind: sr.kind.String(),
					TPs:  make([]int64, 0, sr.Len()),
					V:    make([]int64, 0, sr.Len()),
				}
				for i := 0; i < sr.Len(); i++ {
					t, v := sr.Sample(i)
					rec.TPs = append(rec.TPs, t)
					rec.V = append(rec.V, v)
				}
				run.Series = append(run.Series, rec)
			}
		}
		for _, h := range r.Metrics().Histograms() {
			if h.Count() == 0 {
				continue
			}
			run.Histograms = append(run.Histograms, HistData{
				Name:   h.Name(),
				Count:  h.Count(),
				Sum:    h.Sum(),
				Min:    h.Min(),
				Max:    h.Max(),
				P50Ps:  h.Quantile(0.50),
				P90Ps:  h.Quantile(0.90),
				P99Ps:  h.Quantile(0.99),
				P999Ps: h.Quantile(0.999),
			})
		}
		f.Runs = append(f.Runs, run)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&f)
}

// ReadSeries parses a document written by WriteSeries.
func ReadSeries(r io.Reader) (*SeriesFile, error) {
	var f SeriesFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("parse series file: %w", err)
	}
	if f.Schema != seriesSchema {
		return nil, fmt.Errorf("unsupported series schema %q (want %q)", f.Schema, seriesSchema)
	}
	for _, run := range f.Runs {
		for _, sr := range run.Series {
			if len(sr.TPs) != len(sr.V) {
				return nil, fmt.Errorf("series %q: %d timestamps vs %d values", sr.Name, len(sr.TPs), len(sr.V))
			}
		}
	}
	return &f, nil
}
