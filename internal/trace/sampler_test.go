package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestGauge(t *testing.T) {
	m := NewMetrics()
	g := m.Gauge("noc.inflight")
	g.Set(5)
	g.Add(-2)
	g.Inc()
	g.Dec()
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}
	if again := m.Gauge("noc.inflight"); again != g {
		t.Fatal("Gauge did not return the existing instance")
	}
	m.Gauge("a.first")
	names := []string{}
	for _, g := range m.Gauges() {
		names = append(names, g.Name())
	}
	if len(names) != 2 || names[0] != "a.first" || names[1] != "noc.inflight" {
		t.Fatalf("gauges not sorted by name: %v", names)
	}
	if m.Snapshot()["noc.inflight"] != 3 {
		t.Fatal("snapshot missing gauge")
	}
	var nilG *Gauge
	nilG.Set(7)
	nilG.Add(1)
	nilG.Inc()
	nilG.Dec()
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

func TestGaugeAllocFree(t *testing.T) {
	m := NewMetrics()
	g := m.Gauge("tile.depth")
	if avg := testing.AllocsPerRun(1000, func() {
		g.Set(3)
		g.Add(-1)
		g.Inc()
		g.Dec()
	}); avg != 0 {
		t.Fatalf("gauge hot path allocates %.1f/op, want 0", avg)
	}
	var nilG *Gauge
	if avg := testing.AllocsPerRun(1000, func() {
		nilG.Set(3)
		nilG.Add(1)
	}); avg != 0 {
		t.Fatalf("nil gauge path allocates %.1f/op, want 0", avg)
	}
}

func TestSnapshotHistogramEntries(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("dtu.cmd_time")
	h.Observe(100)
	h.Observe(300)
	snap := m.Snapshot()
	if snap["dtu.cmd_time.count"] != 2 {
		t.Fatalf("snapshot count = %d, want 2", snap["dtu.cmd_time.count"])
	}
	if snap["dtu.cmd_time.sum"] != 400 {
		t.Fatalf("snapshot sum = %d, want 400", snap["dtu.cmd_time.sum"])
	}
}

// TestQuantileBoundedError checks the sketch's contract: every quantile
// estimate is within a relative error of 1/2^histSubBits of the exact
// order statistic, and estimates stay inside [min, max].
func TestQuantileBoundedError(t *testing.T) {
	var h Histogram
	var samples []int64
	// A spread of magnitudes: exact small values, mid-range, and a heavy tail.
	for i := int64(0); i < 2000; i++ {
		v := (i * i * 7919) % 5_000_000
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		rank := int(q * float64(len(samples)))
		if rank >= len(samples) {
			rank = len(samples) - 1
		}
		exact := samples[rank]
		got := h.Quantile(q)
		if got < h.Min() || got > h.Max() {
			t.Fatalf("q=%g: estimate %d outside [min,max] = [%d,%d]", q, got, h.Min(), h.Max())
		}
		tol := math.Max(float64(exact)/float64(histSubCount), 1)
		if math.Abs(float64(got-exact)) > tol+float64(histSubCount) {
			t.Fatalf("q=%g: estimate %d vs exact %d exceeds error bound %.0f", q, got, exact, tol)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	var h Histogram
	h.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-sample quantile(%g) = %d, want 42", q, got)
		}
	}
	// q<=0 pins to min, q>=1 to max.
	h.Observe(7)
	if h.Quantile(0) != 7 || h.Quantile(1) != 42 {
		t.Fatalf("quantile(0)/quantile(1) = %d/%d, want 7/42", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(1); i <= 100; i++ {
		a.Observe(i * 1000)
		both.Observe(i * 1000)
	}
	for i := int64(1); i <= 100; i++ {
		b.Observe(i * 50_000)
		both.Observe(i * 50_000)
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", a.Count(), a.Sum(), both.Count(), both.Sum())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merged min/max = %d/%d, want %d/%d", a.Min(), a.Max(), both.Min(), both.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merged quantile(%g) = %d, want %d", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty or nil histogram is a no-op.
	count := a.Count()
	a.Merge(&Histogram{})
	a.Merge(nil)
	if a.Count() != count {
		t.Fatal("merging empty changed the count")
	}
}

// TestHistogramGridLazy: a histogram that never saw a nonzero value holds
// no sub-bucket grid, not even after merging another such histogram; the
// first nonzero observation allocates it, and a warm Observe allocates
// nothing.
func TestHistogramGridLazy(t *testing.T) {
	var h Histogram
	if h.sub != nil {
		t.Fatal("unobserved histogram holds a grid")
	}
	for i := 0; i < 3; i++ {
		h.Observe(0)
		h.Observe(-7) // clamped to zero
	}
	var sink Histogram
	sink.Merge(&h)
	if h.sub != nil || sink.sub != nil {
		t.Fatal("zero-only histogram holds a grid")
	}
	if h.Count() != 6 || h.Quantile(0.5) != 0 || sink.Count() != 6 {
		t.Fatalf("zero-only histogram: count %d, median %d, merged count %d; want 6, 0, 6",
			h.Count(), h.Quantile(0.5), sink.Count())
	}
	h.Observe(5)
	if h.sub == nil {
		t.Fatal("nonzero observation left the grid unallocated")
	}
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(123_456) }); avg != 0 {
		t.Fatalf("warm Observe: %.1f allocs, want 0", avg)
	}
}

// TestHistogramMatchesEagerGrid feeds seeded random streams (zeros, a
// spread of magnitudes up to MaxInt64, negatives, and zero-only streams)
// into lazy histograms and into a reference whose grid exists from the
// start: counts, buckets, quantiles and merges must agree exactly.
func TestHistogramMatchesEagerGrid(t *testing.T) {
	eager := func() *Histogram { return &Histogram{sub: new(histGrid)} }
	same := func(seed int64, what string, got, want *Histogram) {
		t.Helper()
		if got.Count() != want.Count() || got.Sum() != want.Sum() ||
			got.Min() != want.Min() || got.Max() != want.Max() {
			t.Fatalf("seed %d, %s: count/sum/min/max %d/%d/%d/%d, want %d/%d/%d/%d", seed, what,
				got.Count(), got.Sum(), got.Min(), got.Max(), want.Count(), want.Sum(), want.Min(), want.Max())
		}
		gb, gc := got.Buckets()
		wb, wc := want.Buckets()
		if !reflect.DeepEqual(gb, wb) || !reflect.DeepEqual(gc, wc) {
			t.Fatalf("seed %d, %s: buckets %v %v, want %v %v", seed, what, gb, gc, wb, wc)
		}
		for q := 0.0; q <= 1.0; q += 0.005 {
			if g, w := got.Quantile(q), want.Quantile(q); g != w {
				t.Fatalf("seed %d, %s: quantile(%g) = %d, want %d", seed, what, q, g, w)
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zeroOnly := seed%5 == 0
		lazy := [2]*Histogram{{}, {}}
		ref := [2]*Histogram{eager(), eager()}
		for i, n := 0, rng.Intn(400); i < n; i++ {
			var v int64
			switch k := rng.Intn(8); {
			case zeroOnly || k == 0:
			case k == 1:
				v = -rng.Int63n(1000)
			case k == 2:
				v = math.MaxInt64 - rng.Int63n(1<<40)
			default:
				v = rng.Int63n(int64(1) << uint(1+rng.Intn(62)))
			}
			j := rng.Intn(2)
			lazy[j].Observe(v)
			ref[j].Observe(v)
		}
		same(seed, "stream 0", lazy[0], ref[0])
		same(seed, "stream 1", lazy[1], ref[1])
		var fresh Histogram
		fresh.Merge(lazy[1])
		same(seed, "merged into empty", &fresh, ref[1])
		lazy[0].Merge(lazy[1])
		ref[0].Merge(ref[1])
		same(seed, "merged", lazy[0], ref[0])
	}
}

func TestSamplerSeries(t *testing.T) {
	m := NewMetrics()
	g := m.Gauge("mux.runnable")
	c := m.Counter("dtu.sends")
	probed := 0
	m.AddProbe(func() { probed++ })
	s := NewSampler(m, 100)
	if s.Interval() != 100 {
		t.Fatalf("interval = %d, want 100", s.Interval())
	}

	g.Set(2)
	c.Add(5)
	s.Sample(100)
	g.Set(7)
	c.Add(3)
	s.Sample(200)
	if probed != 2 {
		t.Fatalf("probe ran %d times, want 2", probed)
	}
	if s.Samples() != 2 {
		t.Fatalf("ticks = %d, want 2", s.Samples())
	}

	byName := map[string]*Series{}
	for _, sr := range s.Series() {
		byName[sr.Name()] = sr
	}
	gs := byName["mux.runnable"]
	if gs == nil || gs.Kind() != SeriesGauge || gs.Len() != 2 {
		t.Fatalf("gauge series malformed: %+v", gs)
	}
	if tp, v := gs.Sample(0); tp != 100 || v != 2 {
		t.Fatalf("gauge sample 0 = (%d,%d), want (100,2)", tp, v)
	}
	if tp, v := gs.Sample(1); tp != 200 || v != 7 {
		t.Fatalf("gauge sample 1 = (%d,%d), want (200,7)", tp, v)
	}
	cs := byName["dtu.sends"]
	if cs == nil || cs.Kind() != SeriesDelta {
		t.Fatalf("counter series malformed: %+v", cs)
	}
	if _, v := cs.Sample(0); v != 5 {
		t.Fatalf("counter delta 0 = %d, want 5", v)
	}
	if _, v := cs.Sample(1); v != 3 {
		t.Fatalf("counter delta 1 = %d, want 3", v)
	}
}

// TestSamplerMidRunCounter checks that a counter created after the first
// tick baselines at its current value instead of reporting its whole
// history as one delta.
func TestSamplerMidRunCounter(t *testing.T) {
	m := NewMetrics()
	s := NewSampler(m, 100)
	m.Counter("a.early").Add(10)
	s.Sample(100)
	late := m.Counter("b.late")
	late.Add(500)
	s.Sample(200)
	late.Add(2)
	s.Sample(300)
	var lateSeries *Series
	for _, sr := range s.Series() {
		if sr.Name() == "b.late" {
			lateSeries = sr
		}
	}
	if lateSeries.Len() != 2 {
		t.Fatalf("late series has %d samples, want 2", lateSeries.Len())
	}
	if _, v := lateSeries.Sample(0); v != 0 {
		t.Fatalf("mid-run counter first delta = %d, want 0 (baselined)", v)
	}
	if _, v := lateSeries.Sample(1); v != 2 {
		t.Fatalf("mid-run counter second delta = %d, want 2", v)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	m := NewMetrics()
	g := m.Gauge("a.b")
	s := NewSampler(m, 1)
	const extra = 6
	for i := int64(0); i < DefaultSampleCap+extra; i++ {
		g.Set(i)
		s.Sample(i)
	}
	sr := s.Series()[0]
	if sr.Len() != DefaultSampleCap {
		t.Fatalf("ring kept %d samples, want %d", sr.Len(), DefaultSampleCap)
	}
	for _, i := range []int{0, 1, DefaultSampleCap - 1} {
		tp, v := sr.Sample(i)
		if want := int64(extra + i); tp != want || v != want {
			t.Fatalf("sample %d = (%d,%d), want (%d,%d)", i, tp, v, want, want)
		}
	}
}

func TestSamplerSteadyStateNoAlloc(t *testing.T) {
	m := NewMetrics()
	g := m.Gauge("a.b")
	m.Counter("c.d").Add(1)
	s := NewSampler(m, 1)
	// Fill the rings past capacity so the measured ticks evict.
	now := int64(0)
	for ; now < DefaultSampleCap+16; now++ {
		g.Set(now)
		s.Sample(now)
	}
	// Steady-state ticks allocate only the sorted-accessor slices and their
	// sort closures; the ring pushes themselves are allocation free.
	if avg := testing.AllocsPerRun(200, func() {
		g.Set(now)
		s.Sample(now)
		now++
	}); avg > 6 {
		t.Fatalf("steady-state tick allocates %.1f/op, want <= 6 (accessor slices only)", avg)
	}
}

func TestWriteSeriesRoundTrip(t *testing.T) {
	r := NewRecorder()
	m := r.Metrics()
	g := m.Gauge("noc.inflight")
	h := m.Histogram("dtu.cmd_time")
	h.Observe(1000)
	h.Observe(3000)
	m.Histogram("mux.unused") // zero observations: excluded from the export
	s := NewSampler(m, 250)
	r.SetSampler(s)
	g.Set(4)
	s.Sample(250)
	g.Set(6)
	s.Sample(500)

	var buf bytes.Buffer
	if err := WriteSeries(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteSeries: %v", err)
	}
	sf, err := ReadSeries(&buf)
	if err != nil {
		t.Fatalf("ReadSeries: %v", err)
	}
	if sf.IntervalPs != 250 || len(sf.Runs) != 1 {
		t.Fatalf("interval/runs = %d/%d, want 250/1", sf.IntervalPs, len(sf.Runs))
	}
	run := sf.Runs[0]
	if len(run.Series) != 1 || run.Series[0].Name != "noc.inflight" {
		t.Fatalf("series = %+v, want one noc.inflight", run.Series)
	}
	if got := run.Series[0].V; len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Fatalf("series values = %v, want [4 6]", got)
	}
	if len(run.Histograms) != 1 || run.Histograms[0].Name != "dtu.cmd_time" {
		t.Fatalf("histograms = %+v, want one dtu.cmd_time", run.Histograms)
	}
	hd := run.Histograms[0]
	if hd.Count != 2 || hd.Sum != 4000 || hd.P99Ps < hd.P50Ps {
		t.Fatalf("histogram summary malformed: %+v", hd)
	}
}

func TestReadSeriesRejectsBadInput(t *testing.T) {
	if _, err := ReadSeries(strings.NewReader(`{"schema":"m3vseries/v0","runs":[]}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := ReadSeries(strings.NewReader(`not json`)); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	bad := `{"schema":"m3vseries/v1","interval_ps":1,"runs":[{"series":[{"name":"a.b","kind":"gauge","t_ps":[1,2],"v":[1]}]}]}`
	if _, err := ReadSeries(strings.NewReader(bad)); err == nil {
		t.Fatal("mismatched t_ps/v lengths accepted")
	}
}

// TestWriteChromeCounterTracks checks the Perfetto export: sampled series
// become "ph":"C" counter events, tile-prefixed series land on the tile's
// pid, everything else goes to the metrics pseudo-process, and a tile that
// has only counter tracks still gets its process name.
func TestWriteChromeCounterTracks(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.EmitSpan(0, 0, SpanMuxSwitch, 1000, 1500, 2, CompTileMux, PathNone, 0xFFFD, 1, 0)
	m := r.Metrics()
	gTile := m.Gauge("tile02.mux.runnable")
	gQuiet := m.Gauge("tile05.mux.runnable")
	gGlobal := m.Gauge("noc.inflight")
	s := NewSampler(m, 100)
	r.SetSampler(s)
	gTile.Set(1)
	gQuiet.Set(0)
	gGlobal.Set(9)
	s.Sample(100)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	counters := map[string]chromeEntry{}
	procs := map[int]string{}
	for _, ev := range parseChrome(t, buf.Bytes()) {
		if ev.Ph == "C" {
			counters[ev.Name] = ev
		}
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[ev.Pid] = ev.Args.Name
		}
	}
	tileEv, ok := counters["tile02.mux.runnable"]
	if !ok {
		t.Fatal("tile gauge missing from counter tracks")
	}
	if tileEv.Pid != 2 {
		t.Fatalf("tile counter pid = %d, want 2", tileEv.Pid)
	}
	globalEv, ok := counters["noc.inflight"]
	if !ok {
		t.Fatal("global gauge missing from counter tracks")
	}
	if globalEv.Args.Value != 9 || globalEv.Ts != 0.0001 {
		t.Fatalf("counter value %d at %vus, want 9 at 0.0001us", globalEv.Args.Value, globalEv.Ts)
	}
	if procs[globalEv.Pid] != "metrics" {
		t.Fatal("metrics pseudo-process not named")
	}
	if procs[2] != "tile 2" || procs[5] != "tile 5" {
		t.Fatalf("tile processes named %v, want tile 2 and tile 5", procs)
	}
}

// TestWriteChromeNoSampler pins the no-telemetry path: a recorder without a
// sampler exports exactly what it did before counter tracks existed.
func TestWriteChromeNoSampler(t *testing.T) {
	r := NewRecorder()
	r.Enable()
	r.EmitSpan(0, 0, SpanMuxIrq, 100, 100, 1, CompTileMux, PathNone, 2, 0, 0)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Recorder{r}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if strings.Contains(buf.String(), `"ph":"C"`) {
		t.Fatal("counter events emitted without a sampler")
	}
}
