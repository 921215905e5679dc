package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"m3v/internal/trace"
)

// The traced run measures the per-layer metrics. It runs the workload's
// untraced passes for --seconds (the base for host cost per event), a few
// seconds of passes under the CPU profiler (package shares), one untraced
// and one traced pass of the same fixed input (tracing overhead; the traced
// one records every simulation's event stream for the simulated-work
// counts), and the layer probes. It writes everything, with the
// benchmark-side spans, to one JSON report.

// tracedRun returns every pass it ran, for the correctness tally, and the
// per-layer metrics.
func tracedRun(w workload, o options, stdout io.Writer) ([]passStats, map[string]metric, error) {
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	sp := newSpans(fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, nil, err
	}

	base := measureFor(w, time.Duration(o.seconds)*time.Second, passOpts{sp: sp})

	profile := filepath.Join(o.out, "cpu-"+name+".pprof")
	profiled, err := profiledPasses(w, profile, sp)
	if err != nil {
		return nil, nil, err
	}
	shares, top, err := profileShares(profile)
	if err != nil {
		return nil, nil, err
	}

	counts, ref, traced, err := tracedPass(w, sp)
	if err != nil {
		return nil, nil, err
	}

	m := counts
	for _, p := range probes {
		id := sp.begin(0, "probe", p.name)
		r, err := p.run()
		sp.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name+"_ns"] = metric{r.ns, "ns"}
		m[p.name+"_allocs"] = metric{r.allocs, "count"}
		m[p.name+"_events"] = metric{r.events, "count"}
	}
	var wallSum, mallocs, events float64
	allocMB, gcs := make([]float64, len(base)), make([]float64, len(base))
	for i, p := range base {
		wallSum += p.wall
		mallocs += float64(p.mallocs)
		events += float64(p.events)
		allocMB[i], gcs[i] = p.allocMB, float64(p.gcs)
	}
	m["sim.host_ns_per_event"] = metric{wallSum * 1e9 / events, "ns"}
	m["sim.allocs_per_event"] = metric{mallocs / events, "count"}
	m["go.alloc_mb"] = metric{median(allocMB), "MB"}
	m["go.gc_cycles"] = metric{median(gcs), "count"}
	for _, g := range hostGroups {
		m["host."+g+"_pct"] = metric{shares[g], "%"}
	}
	m["trace.overhead_pct"] = metric{100 * (traced.wall/ref.wall - 1), "%"}

	passes := append(append(base, profiled...), ref, traced)
	rep := report{
		Run:       sp.run,
		Workload:  o.workload,
		Seed:      o.seed,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Passes:    map[string]int{"untraced": len(base), "profiled": len(profiled), "reference": 1, "traced": 1},
		Metrics:   m,
		Extras:    map[string]extraJSON{},
		ProfTop:   top,
		Spans:     sp.all(),
	}
	for _, e := range w.extras(true) {
		rep.Extras[e.name] = newExtraJSON(e)
	}
	path := filepath.Join(o.out, "traced-"+name+".json")
	if err := writeJSON(path, rep); err != nil {
		return nil, nil, err
	}
	printPerLayer(stdout, m, w.extras(true), path)
	return passes, m, nil
}

// profileMin is the least host time the traced run profiles, so that a
// workload with short passes still gives the profile enough samples.
const profileMin = 3 * time.Second

// profiledPasses runs passes under the CPU profiler until profileMin has
// passed, at least one.
func profiledPasses(w workload, path string, sp *spans) ([]passStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	var ps []passStats
	for start := time.Now(); len(ps) == 0 || time.Since(start) < profileMin; {
		id := sp.begin(0, "pass", "profiled")
		ps = append(ps, runPass(w, passOpts{sp: sp, parent: id}))
		sp.end(id)
	}
	pprof.StopCPUProfile()
	return ps, f.Close()
}

// tracedPass runs one untraced reference pass and then one pass with
// auto-registered recorders and the event stream on, both of the fixed
// input, so the two do the same work. It returns the simulated-work counts
// of the traced pass and both passes. Recorders are harvested and dropped
// after every operation, so memory stays bounded by one simulation's event
// stream.
func tracedPass(w workload, sp *spans) (map[string]metric, passStats, passStats, error) {
	var c simCounts
	harvest := func() {
		for _, r := range trace.Registered() {
			c.add(r)
			r.Reset()
		}
		trace.ClearRegistered()
	}
	id := sp.begin(0, "pass", "reference")
	ref := runPass(w, passOpts{sp: sp, parent: id, fixed: true})
	sp.end(id)

	srv, isServer := w.(*serveMix)
	var before map[string]int64
	if isServer {
		var err error
		if before, err = srv.serverMetrics(); err != nil {
			return nil, ref, passStats{}, err
		}
	}
	trace.SetAutoRegister(true, true)
	id = sp.begin(0, "pass", "traced")
	p := runPass(w, passOpts{sp: sp, parent: id, afterOp: harvest, fixed: true})
	sp.end(id)
	harvest()
	trace.SetAutoRegister(false, false)

	m := c.metrics(p.events)
	if isServer {
		after, err := srv.serverMetrics()
		if err != nil {
			return nil, ref, passStats{}, err
		}
		d := func(name string) float64 { return float64(after[name] - before[name]) }
		m["serve.hits"] = metric{d("serve.cache_hits"), "count"}
		m["serve.misses"] = metric{d("serve.cache_misses"), "count"}
		m["serve.coalesced"] = metric{d("serve.coalesced_waits"), "count"}
		m["serve.rejects"] = metric{d("serve.queue_rejects"), "count"}
		m["serve.hit_ratio"] = metric{d("serve.cache_hits") / d("serve.requests"), "ratio"}
	}
	return m, ref, p, nil
}

// simCounts accumulates the simulated work recorded by a set of recorders.
type simCounts struct {
	nocPackets, nocBytes, syscalls, switches, irqs int64
	forwards, remoteSwitches                       int64
	cmdTime, switchTime                            trace.Histogram
}

func (c *simCounts) add(r *trace.Recorder) {
	for _, ctr := range r.Metrics().Counters() {
		switch n := ctr.Name(); {
		case n == "noc.delivered":
			c.nocPackets += ctr.Value()
		case n == "noc.bytes":
			c.nocBytes += ctr.Value()
		case n == "kernel.syscalls":
			c.syscalls += ctr.Value()
		case strings.HasSuffix(n, ".mux.ctx_switches"):
			c.switches += ctr.Value()
		case strings.HasSuffix(n, ".mux.irqs"):
			c.irqs += ctr.Value()
		}
	}
	for _, h := range r.Metrics().Histograms() {
		switch {
		case strings.HasSuffix(h.Name(), ".dtu.cmd_time"):
			c.cmdTime.Merge(h)
		case strings.HasSuffix(h.Name(), ".mux.switch_time"):
			c.switchTime.Merge(h)
		}
	}
	c.forwards += r.CountSpans(trace.SpanKernForward)
	c.remoteSwitches += r.CountSpans(trace.SpanKernSwitch)
}

// metrics reports the counts; the serve.* counts are zero unless the
// workload drives a server.
func (c *simCounts) metrics(events uint64) map[string]metric {
	n := func(v int64) metric { return metric{float64(v), "count"} }
	return map[string]metric{
		"sim.events":            {float64(events), "count"},
		"noc.packets":           n(c.nocPackets),
		"noc.bytes":             {float64(c.nocBytes), "bytes"},
		"dtu.cmds":              n(c.cmdTime.Count()),
		"dtu.p99_cmd_ps":        {float64(c.cmdTime.Quantile(0.99)), "sim_ps"},
		"tilemux.switches":      n(c.switches),
		"tilemux.irqs":          n(c.irqs),
		"tilemux.p99_switch_ps": {float64(c.switchTime.Quantile(0.99)), "sim_ps"},
		"kernel.syscalls":       n(c.syscalls),
		"m3x.forwards":          n(c.forwards),
		"m3x.remote_switches":   n(c.remoteSwitches),
		"serve.hits":            n(0),
		"serve.misses":          n(0),
		"serve.coalesced":       n(0),
		"serve.rejects":         n(0),
		"serve.hit_ratio":       {0, "ratio"},
	}
}

// profileShares reads a CPU profile with the offline `go tool pprof` and
// returns each host group's share of the samples in percent, plus the
// tool's top lines for the report.
func profileShares(path string) (map[string]float64, []string, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop sums the flat% column of `pprof -top` output by host group.
func parseTop(out []byte) (map[string]float64, []string, error) {
	shares := make(map[string]float64, len(hostGroups))
	var top []string
	rowsSeen := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue // the header line
		}
		rowsSeen = true
		shares[groupOf(f[5])] += pct
		if len(top) < 40 {
			top = append(top, strings.Join(f, " "))
		}
	}
	if !rowsSeen {
		return nil, nil, fmt.Errorf("pprof -top printed no rows")
	}
	return shares, top, sc.Err()
}

// groupOf assigns a profiled function to a host group by its package; Go
// runtime functions are split by name into gc, alloc and the rest.
func groupOf(fn string) string {
	pkg := fn
	if i := strings.Index(fn[strings.LastIndex(fn, "/")+1:], "."); i >= 0 {
		pkg = fn[:strings.LastIndex(fn, "/")+1+i]
	}
	if layer, ok := strings.CutPrefix(pkg, "m3v/internal/"); ok {
		for _, g := range hostGroups[:9] {
			if layer == g {
				return g
			}
		}
		return "other"
	}
	// Names without a package are the runtime's assembly routines
	// (memeqbody, gcWriteBarrier2, ...).
	if !strings.Contains(fn, ".") || pkg == "runtime" || pkg == "syscall" || strings.HasPrefix(pkg, "internal/runtime") {
		name := strings.TrimPrefix(fn, pkg+".")
		for _, p := range gcFuncs {
			if strings.HasPrefix(name, p) {
				return "gc"
			}
		}
		for _, p := range allocFuncs {
			if strings.HasPrefix(name, p) {
				return "alloc"
			}
		}
		return "runtime"
	}
	return "other"
}

// gcFuncs and allocFuncs are name prefixes of runtime functions that do
// garbage collection (marking, sweeping, scavenging, write barriers) and
// heap allocation. The split is by name and therefore approximate.
var (
	gcFuncs = []string{
		"gc", "(*gc", "scanobject", "scanblock", "scanstack", "scanframe",
		"greyobject", "markroot", "markBits", "(*markBits)", "findObject",
		"heapBits", "(*mspan).heapBits", "typePointers", "(*typePointers)",
		"(*mspan).typePointers", "sweepone", "bgsweep", "(*sweepLocked)",
		"(*mspan).sweep", "bgscavenge", "(*scavenger", "(*pageAlloc).scavenge",
		"wbBuf", "(*wbBuf)", "bulkBarrier", "spanOf", "pageIndexOf", "shade",
		"(*mheap).nextSpanForSweep", "(*mspan).markBitsForIndex",
	}
	allocFuncs = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "nextFreeFast",
		"(*mspan).nextFreeIndex", "(*mspan).refillAllocCache", "heapSetType",
		"memclrNoHeapPointers", "(*fixalloc)", "rawstring", "rawbyteslice",
		"concatstring", "slicebytetostring", "deductAssistCredit",
		"publicationBarrier", "(*mspan).init",
	}
)

// report is the traced run's JSON output.
type report struct {
	Run       string               `json:"run"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	GoVersion string               `json:"go_version"`
	NumCPU    int                  `json:"nproc"`
	Passes    map[string]int       `json:"passes"`
	Metrics   map[string]metric    `json:"metrics"`
	Extras    map[string]extraJSON `json:"extras"`
	ProfTop   []string             `json:"pprof_top"`
	Spans     []span               `json:"spans"`
}

// extraJSON is an extra in the report; a figure the workload does not have
// (NaN) has no value.
type extraJSON struct {
	Value *float64 `json:"value,omitempty"`
	Unit  string   `json:"unit"`
	Note  string   `json:"note"`
}

func newExtraJSON(e extra) extraJSON {
	x := extraJSON{Unit: e.unit, Note: e.note}
	if !math.IsNaN(e.value) {
		v := e.value
		x.Value = &v
	}
	return x
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printPerLayer writes the human-readable per-layer report.
func printPerLayer(w io.Writer, m map[string]metric, extras []extra, path string) {
	for _, s := range perLayerSpecs {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", s.name, m[s.name].Value, s.unit)
	}
	for _, e := range extras {
		fmt.Fprintf(w, "  %-28s %16.6g %-6s (%s)\n", e.name, e.value, e.unit, e.note)
	}
	fmt.Fprintf(w, "traced-run report: %s\n", path)
}
