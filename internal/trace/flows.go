package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file defines the flow-span interchange format consumed by
// cmd/m3vtrace: a JSON document carrying the span streams of one or more
// recorders (runs), plus the well-formedness checker and the latency /
// critical-path analysis that runs on it.

// FlowSchema identifies the interchange format version.
const FlowSchema = "m3vflows/v1"

// FlowSpan is the serialized form of one Span. ID is the span's 1-based
// position in its run's stream (the value SpanRefs refer to).
type FlowSpan struct {
	Flow   uint64 `json:"flow"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Comp   string `json:"comp"`
	Tile   int32  `json:"tile"`
	At     int64  `json:"at"`
	End    int64  `json:"end"`
	Path   string `json:"path,omitempty"`
	Arg0   int64  `json:"arg0,omitempty"`
	Arg1   int64  `json:"arg1,omitempty"`
}

// Dur reports the span's duration (0 for never-ended spans).
func (s *FlowSpan) Dur() int64 {
	if s.End < s.At {
		return 0
	}
	return s.End - s.At
}

// FlowRun is the span stream of one recorder.
type FlowRun struct {
	Run   int        `json:"run"`
	Spans []FlowSpan `json:"spans"`
}

// FlowFile is the on-disk document.
type FlowFile struct {
	Schema string    `json:"schema"`
	Runs   []FlowRun `json:"runs"`
}

// WriteFlows streams the flow spans of the given recorders as a FlowFile
// (one run per recorder, in order), byte for byte what encoding/json makes
// of it. Spans of flow 0 belong to no message and are left out; span IDs
// and parent refs are renumbered to positions in the written stream.
func WriteFlows(w io.Writer, recs []*Recorder) error {
	sw := &streamWriter{w: w}
	sw.buf = append(sw.buf, `{"schema":"`+FlowSchema+`","runs":`...)
	if len(recs) == 0 {
		sw.buf = append(sw.buf, "null"...)
	}
	for ri, r := range recs {
		sep := byte(',')
		if ri == 0 {
			sep = '['
		}
		b := append(sw.buf, sep)
		b = append(b, `{"run":`...)
		b = strconv.AppendInt(b, int64(ri), 10)
		sw.buf = append(b, `,"spans":[`...)
		// ids maps a recorded span's position to its written ID (0 when
		// left out); a parent always precedes its child.
		ids := make([]int32, len(r.Spans()))
		var id int32
		for i := range r.Spans() {
			s := &r.spans[i]
			if s.Flow == 0 {
				continue
			}
			b := sw.next()
			if id > 0 {
				b = append(b, ',')
			}
			id++
			ids[i] = id
			b = append(b, `{"flow":`...)
			b = strconv.AppendUint(b, s.Flow, 10)
			b = strconv.AppendInt(append(b, `,"id":`...), int64(id), 10)
			// The omitempty members: every one follows another, so an
			// open offset of 0 always puts a comma before it.
			if s.Parent > 0 && int(s.Parent) <= i {
				b = appendArg(b, 0, "parent", int64(ids[s.Parent-1]))
			}
			b = appendString(append(b, `,"name":`...), s.Name.String())
			b = appendString(append(b, `,"comp":`...), s.Comp.String())
			b = strconv.AppendInt(append(b, `,"tile":`...), int64(s.Tile), 10)
			b = strconv.AppendInt(append(b, `,"at":`...), s.At, 10)
			b = strconv.AppendInt(append(b, `,"end":`...), s.End, 10)
			if s.Path != PathNone {
				b = appendString(append(b, `,"path":`...), s.Path.String())
			}
			b = appendArg(b, 0, "arg0", s.Arg0)
			b = appendArg(b, 0, "arg1", s.Arg1)
			sw.buf = append(b, '}')
		}
		sw.buf = append(sw.buf, "]}"...)
	}
	if len(recs) > 0 {
		sw.buf = append(sw.buf, ']')
	}
	sw.buf = append(sw.buf, "}\n"...)
	sw.flush()
	return sw.err
}

// spanNameOf is the reverse of SpanName.String (SpanNone if unknown).
func spanNameOf(s string) SpanName {
	for i := SpanName(0); i < numSpanNames; i++ {
		if spanNames[i] == s {
			return i
		}
	}
	return SpanNone
}

// componentOf is the reverse of Component.String (CompDTU if unknown).
func componentOf(s string) Component {
	for i := Component(0); i < numComponents; i++ {
		if componentNames[i] == s {
			return i
		}
	}
	return 0
}

// pathOf is the reverse of Path.String.
func pathOf(s string) Path {
	switch s {
	case "fast":
		return PathFast
	case "slow":
		return PathSlow
	}
	return PathNone
}

// WriteFlowsChrome renders a parsed flow file as Chrome trace-event JSON
// with Perfetto flow arrows — the file-based equivalent of WriteChrome for
// runs whose recorders are no longer live.
func WriteFlowsChrome(w io.Writer, f *FlowFile) error {
	recs := make([]*Recorder, 0, len(f.Runs))
	for _, run := range f.Runs {
		r := &Recorder{enabled: true}
		for i := range run.Spans {
			fs := &run.Spans[i]
			r.spans = append(r.spans, Span{
				Flow: fs.Flow, Parent: SpanRef(fs.Parent), At: fs.At, End: fs.End,
				Tile: fs.Tile, Comp: componentOf(fs.Comp), Name: spanNameOf(fs.Name),
				Path: pathOf(fs.Path), Arg0: fs.Arg0, Arg1: fs.Arg1,
			})
		}
		recs = append(recs, r)
	}
	return WriteChrome(w, recs)
}

// ReadFlows parses a FlowFile and validates the schema marker.
func ReadFlows(r io.Reader) (*FlowFile, error) {
	var f FlowFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: parsing flow file: %w", err)
	}
	if f.Schema != FlowSchema {
		return nil, fmt.Errorf("trace: flow file schema %q, want %q", f.Schema, FlowSchema)
	}
	return &f, nil
}

// CheckFlows verifies span-stream well-formedness and returns a list of
// problems (empty = well-formed):
//
//   - every span's ID is its 1-based position in the run's stream, so IDs
//     are unique;
//   - every begun span has an end (End >= At);
//   - every parent ref resolves to an earlier span (0 < Parent < ID) of the
//     same flow, and the child's interval is enclosed by its parent's;
//   - every flow that must resolve — its root dtu.send/dtu.reply completed
//     successfully, or it carries a kernel.forward span — has a fast/slow
//     verdict (flows whose send failed, e.g. out of credits, may have none).
func CheckFlows(f *FlowFile) []string {
	var problems []string
	for _, run := range f.Runs {
		mustResolve := map[uint64]bool{}
		verdict := map[uint64]string{}
		flowSeen := map[uint64]bool{}
		var order []uint64
		for i := range run.Spans {
			s := &run.Spans[i]
			if !flowSeen[s.Flow] {
				flowSeen[s.Flow] = true
				order = append(order, s.Flow)
			}
			if int(s.ID) != i+1 {
				problems = append(problems, fmt.Sprintf(
					"run %d: span at position %d (%s) has id %d, want %d",
					run.Run, i+1, s.Name, s.ID, i+1))
			}
			if s.End < s.At {
				problems = append(problems, fmt.Sprintf(
					"run %d: span %d (%s, flow %d) begun at %d but never ended",
					run.Run, s.ID, s.Name, s.Flow, s.At))
			}
			if s.Parent != 0 {
				// Parents are looked up by position, which is the ID of a
				// well-formed stream.
				var p *FlowSpan
				if s.Parent > 0 && int(s.Parent) <= i {
					p = &run.Spans[s.Parent-1]
				}
				switch {
				case p == nil:
					problems = append(problems, fmt.Sprintf(
						"run %d: span %d (%s) has dangling parent %d (not an earlier span)",
						run.Run, s.ID, s.Name, s.Parent))
				case p.Flow != s.Flow:
					problems = append(problems, fmt.Sprintf(
						"run %d: span %d (%s, flow %d) has parent %d of different flow %d",
						run.Run, s.ID, s.Name, s.Flow, p.ID, p.Flow))
				case s.At < p.At || (p.End >= p.At && s.End > p.End):
					problems = append(problems, fmt.Sprintf(
						"run %d: span %d (%s, [%d,%d]) not enclosed by parent %d (%s, [%d,%d])",
						run.Run, s.ID, s.Name, s.At, s.End, p.ID, p.Name, p.At, p.End))
				}
			}
			switch s.Name {
			case "dtu.send", "dtu.reply":
				if s.Parent == 0 && s.Arg1 == 0 {
					mustResolve[s.Flow] = true
				}
			case "kernel.forward":
				mustResolve[s.Flow] = true
			}
			// Slow wins over fast: the controller's final delivery of a
			// forwarded message re-uses the regular DTU store.
			switch s.Path {
			case "slow":
				verdict[s.Flow] = "slow"
			case "fast":
				if verdict[s.Flow] == "" {
					verdict[s.Flow] = "fast"
				}
			}
		}
		for _, flow := range order {
			if mustResolve[flow] && verdict[flow] == "" {
				problems = append(problems, fmt.Sprintf(
					"run %d: flow %d completed but has no fast/slow verdict",
					run.Run, flow))
			}
		}
	}
	return problems
}

// SegmentStats aggregates one span name's contribution across all flows.
type SegmentStats struct {
	Name  string
	Count int64
	// Self is the total self time: span duration minus the durations of its
	// direct children (clamped at zero), i.e. the latency attributable to
	// this segment alone.
	Self     int64
	Min, Max int64
	// Dominant counts the flows whose critical path this segment tops,
	// split by the flow's verdict.
	DominantFast, DominantSlow, DominantNone int64
}

// Mean reports the average self time per span.
func (s *SegmentStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Count)
}

// FlowReport is the output of AnalyzeFlows.
type FlowReport struct {
	Flows                int64
	FastFlows, SlowFlows int64
	NoVerdict            int64
	// EndToEnd histograms the per-flow end-to-end latency (max End - min At).
	EndToEndTotal    int64
	EndToEndMin, Max int64
	Segments         []SegmentStats // sorted by total self time, descending
}

// AnalyzeFlows computes per-segment latency breakdowns and the per-flow
// critical path (which segment's self time dominates end-to-end latency)
// across all runs of a flow file. Output ordering is deterministic.
func AnalyzeFlows(f *FlowFile) *FlowReport {
	rep := &FlowReport{EndToEndMin: -1}
	segs := map[string]*SegmentStats{}
	seg := func(name string) *SegmentStats {
		s := segs[name]
		if s == nil {
			s = &SegmentStats{Name: name, Min: -1}
			segs[name] = s
		}
		return s
	}
	for _, run := range f.Runs {
		// Self time: duration minus the direct children's durations.
		self := make(map[int32]int64, len(run.Spans))
		for i := range run.Spans {
			s := &run.Spans[i]
			self[s.ID] += s.Dur()
			if s.Parent != 0 {
				self[s.Parent] -= s.Dur()
			}
		}
		type flowAgg struct {
			min, max    int64
			verdict     string
			segSelf     map[string]int64
			firstSeen   int
			dominant    string
			dominantVal int64
		}
		flows := map[uint64]*flowAgg{}
		var order []uint64
		for i := range run.Spans {
			s := &run.Spans[i]
			fa := flows[s.Flow]
			if fa == nil {
				fa = &flowAgg{min: s.At, max: s.End, segSelf: map[string]int64{}, firstSeen: i}
				flows[s.Flow] = fa
				order = append(order, s.Flow)
			}
			if s.At < fa.min {
				fa.min = s.At
			}
			if s.End > fa.max {
				fa.max = s.End
			}
			switch s.Path {
			case "slow":
				fa.verdict = "slow"
			case "fast":
				if fa.verdict == "" {
					fa.verdict = "fast"
				}
			}
			sv := self[s.ID]
			if sv < 0 {
				sv = 0
			}
			fa.segSelf[s.Name] += sv
			st := seg(s.Name)
			st.Count++
			st.Self += sv
			if st.Min < 0 || sv < st.Min {
				st.Min = sv
			}
			if sv > st.Max {
				st.Max = sv
			}
		}
		for _, flow := range order {
			fa := flows[flow]
			rep.Flows++
			switch fa.verdict {
			case "fast":
				rep.FastFlows++
			case "slow":
				rep.SlowFlows++
			default:
				rep.NoVerdict++
			}
			e2e := fa.max - fa.min
			if e2e < 0 {
				e2e = 0
			}
			rep.EndToEndTotal += e2e
			if rep.EndToEndMin < 0 || e2e < rep.EndToEndMin {
				rep.EndToEndMin = e2e
			}
			if e2e > rep.Max {
				rep.Max = e2e
			}
			// Critical path: the segment with the largest self time in this
			// flow. Ties break by name for determinism.
			names := make([]string, 0, len(fa.segSelf))
			for n := range fa.segSelf {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if fa.dominant == "" || fa.segSelf[n] > fa.dominantVal {
					fa.dominant, fa.dominantVal = n, fa.segSelf[n]
				}
			}
			if fa.dominant != "" {
				st := seg(fa.dominant)
				switch fa.verdict {
				case "fast":
					st.DominantFast++
				case "slow":
					st.DominantSlow++
				default:
					st.DominantNone++
				}
			}
		}
	}
	for _, s := range segs {
		rep.Segments = append(rep.Segments, *s)
	}
	sort.Slice(rep.Segments, func(i, j int) bool {
		a, b := &rep.Segments[i], &rep.Segments[j]
		if a.Self != b.Self {
			return a.Self > b.Self
		}
		return a.Name < b.Name
	})
	if rep.EndToEndMin < 0 {
		rep.EndToEndMin = 0
	}
	return rep
}

// Format renders the report as the human-readable text cmd/m3vtrace prints.
// Times are in nanoseconds.
func (rep *FlowReport) Format() string {
	var b strings.Builder
	ns := func(ps int64) float64 { return float64(ps) / 1e3 }
	fmt.Fprintf(&b, "flows: %d total, %d fast, %d slow, %d unresolved\n",
		rep.Flows, rep.FastFlows, rep.SlowFlows, rep.NoVerdict)
	if rep.Flows > 0 {
		fmt.Fprintf(&b, "end-to-end latency: mean %.1f ns, min %.1f ns, max %.1f ns\n",
			ns(rep.EndToEndTotal)/float64(rep.Flows), ns(rep.EndToEndMin), ns(rep.Max))
	}
	fmt.Fprintf(&b, "\nper-segment latency breakdown (self time):\n")
	fmt.Fprintf(&b, "%-22s %8s %12s %12s %12s\n", "segment", "count", "total ns", "mean ns", "max ns")
	for i := range rep.Segments {
		s := &rep.Segments[i]
		fmt.Fprintf(&b, "%-22s %8d %12.1f %12.3f %12.3f\n",
			s.Name, s.Count, ns(s.Self), ns(int64(s.Mean())), ns(s.Max))
	}
	fmt.Fprintf(&b, "\ncritical path (dominant segment per flow):\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s\n", "segment", "fast", "slow", "other")
	for i := range rep.Segments {
		s := &rep.Segments[i]
		if s.DominantFast+s.DominantSlow+s.DominantNone == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-22s %10d %10d %10d\n",
			s.Name, s.DominantFast, s.DominantSlow, s.DominantNone)
	}
	return b.String()
}
