package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// This file defines the flow-span interchange format consumed by
// cmd/m3vtrace: a JSON document carrying the flow spans of one or more
// recorders (runs), which ReadFlows turns back into recorders. The
// well-formedness checker and the latency / critical-path analysis run on
// recorders, so a live run and its flows file give the same answers.

// FlowSchema identifies the interchange format version.
const FlowSchema = "m3vflows/v1"

// WriteFlows streams the flow spans of the given recorders as an
// m3vflows/v1 document: {"schema", "runs": [{"run", "spans": [...]}]}, one
// run per recorder, in order, each span an object with the JSON members of
// Span plus its "id" after "flow", byte for byte as encoding/json writes
// them. Spans of flow 0 belong to no message and are left out; span IDs
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

// ReadFlows parses a flows document into one recorder per run, holding the
// run's spans in file order. It returns an error for an unknown span name,
// component or path, a span without a name, an id that is not the span's
// 1-based position (which parent refs resolve against) and a span of flow
// 0: WriteFlows writes none of these.
func ReadFlows(r io.Reader) ([]*Recorder, error) {
	var f struct {
		Schema string `json:"schema"`
		Runs   []struct {
			Spans []struct {
				ID int32 `json:"id"`
				Span
			} `json:"spans"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: parsing flow file: %w", err)
	}
	if f.Schema != FlowSchema {
		return nil, fmt.Errorf("trace: flow file schema %q, want %q", f.Schema, FlowSchema)
	}
	recs := make([]*Recorder, len(f.Runs))
	for ri := range f.Runs {
		run := f.Runs[ri].Spans
		spans := make([]Span, len(run))
		for i := range run {
			s := &run[i]
			switch {
			case s.Name == SpanNone:
				return nil, fmt.Errorf("trace: flow file run %d: span at position %d has no name", ri, i+1)
			case int(s.ID) != i+1:
				return nil, fmt.Errorf("trace: flow file run %d: span at position %d (%s) has id %d, want %d",
					ri, i+1, s.Name, s.ID, i+1)
			case s.Flow == 0:
				return nil, fmt.Errorf("trace: flow file run %d: span %d (%s) has flow 0", ri, s.ID, s.Name)
			}
			spans[i] = s.Span
		}
		f.Runs[ri].Spans = nil
		recs[ri] = &Recorder{spans: spans, metrics: NewMetrics()}
	}
	return recs, nil
}

// CheckFlows verifies the well-formedness of the recorders' flow spans and
// returns a list of problems (empty = well-formed). Spans of flow 0 belong
// to no message and are not checked.
//
//   - every begun span has an end (End >= At);
//   - every parent ref resolves to an earlier span (0 < Parent < ref) of
//     the same flow, and the child's interval is enclosed by its parent's;
//   - every flow that must resolve — its root dtu.send/dtu.reply completed
//     successfully, or it carries a kernel.forward span — has a fast/slow
//     verdict (flows whose send failed, e.g. out of credits, may have none).
func CheckFlows(recs []*Recorder) []string {
	var problems []string
	type flowCheck struct {
		verdict     Path
		mustResolve bool
	}
	for ri, r := range recs {
		spans := r.Spans()
		flows := map[uint64]flowCheck{}
		var order []uint64
		for i := range spans {
			s := &spans[i]
			if s.Flow == 0 {
				continue
			}
			fc, seen := flows[s.Flow]
			if !seen {
				order = append(order, s.Flow)
			}
			if s.End < s.At {
				problems = append(problems, fmt.Sprintf(
					"run %d: span %d (%s, flow %d) begun at %d but never ended",
					ri, i+1, s.Name, s.Flow, s.At))
			}
			if s.Parent != 0 {
				var p *Span
				if s.Parent > 0 && int(s.Parent) <= i {
					p = &spans[s.Parent-1]
				}
				switch {
				case p == nil:
					problems = append(problems, fmt.Sprintf(
						"run %d: span %d (%s) has dangling parent %d (not an earlier span)",
						ri, i+1, s.Name, s.Parent))
				case p.Flow != s.Flow:
					problems = append(problems, fmt.Sprintf(
						"run %d: span %d (%s, flow %d) has parent %d of different flow %d",
						ri, i+1, s.Name, s.Flow, s.Parent, p.Flow))
				case s.At < p.At || (p.End >= p.At && s.End > p.End):
					problems = append(problems, fmt.Sprintf(
						"run %d: span %d (%s, [%d,%d]) not enclosed by parent %d (%s, [%d,%d])",
						ri, i+1, s.Name, s.At, s.End, s.Parent, p.Name, p.At, p.End))
				}
			}
			switch s.Name {
			case SpanDTUSend, SpanDTUReply:
				if s.Parent == 0 && s.Arg1 == 0 {
					fc.mustResolve = true
				}
			case SpanKernForward:
				fc.mustResolve = true
			}
			fc.verdict = max(fc.verdict, s.Path)
			flows[s.Flow] = fc
		}
		for _, flow := range order {
			if fc := flows[flow]; fc.mustResolve && fc.verdict == PathNone {
				problems = append(problems, fmt.Sprintf(
					"run %d: flow %d completed but has no fast/slow verdict",
					ri, flow))
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
// across the flow spans of all recorders. Output ordering is deterministic.
func AnalyzeFlows(recs []*Recorder) *FlowReport {
	rep := &FlowReport{EndToEndMin: -1}
	var segs [numSpanNames]SegmentStats
	// A flow's critical path breaks ties in name order.
	byName := make([]SpanName, numSpanNames)
	for i := range byName {
		byName[i] = SpanName(i)
	}
	slices.SortFunc(byName, func(a, b SpanName) int { return strings.Compare(a.String(), b.String()) })
	type flowAgg struct {
		min, max int64
		verdict  Path
		// self is the flow's self time per span name, -1 for a name
		// none of its spans carries.
		self [numSpanNames]int64
	}
	for _, r := range recs {
		spans := r.Spans()
		// Self time: duration minus the direct children's durations.
		self := make([]int64, len(spans))
		for i := range spans {
			s := &spans[i]
			if s.Flow == 0 {
				continue
			}
			self[i] += s.Dur()
			if s.Parent > 0 && int(s.Parent) <= len(spans) {
				self[s.Parent-1] -= s.Dur()
			}
		}
		index := map[uint64]int{}
		var flows []flowAgg
		for i := range spans {
			s := &spans[i]
			if s.Flow == 0 {
				continue
			}
			k, ok := index[s.Flow]
			if !ok {
				k = len(flows)
				index[s.Flow] = k
				flows = append(flows, flowAgg{min: s.At, max: s.End})
				for n := range flows[k].self {
					flows[k].self[n] = -1
				}
			}
			fa := &flows[k]
			fa.min = min(fa.min, s.At)
			fa.max = max(fa.max, s.End)
			fa.verdict = max(fa.verdict, s.Path)
			sv := max(self[i], 0)
			fa.self[s.Name] = max(fa.self[s.Name], 0) + sv
			st := &segs[s.Name]
			if st.Count == 0 || sv < st.Min {
				st.Min = sv
			}
			st.Count++
			st.Self += sv
			st.Max = max(st.Max, sv)
		}
		for k := range flows {
			fa := &flows[k]
			rep.Flows++
			switch fa.verdict {
			case PathFast:
				rep.FastFlows++
			case PathSlow:
				rep.SlowFlows++
			default:
				rep.NoVerdict++
			}
			e2e := max(fa.max-fa.min, 0)
			rep.EndToEndTotal += e2e
			if rep.EndToEndMin < 0 || e2e < rep.EndToEndMin {
				rep.EndToEndMin = e2e
			}
			rep.Max = max(rep.Max, e2e)
			// Critical path: the segment with the largest self time in
			// this flow.
			dom, best := SpanNone, int64(-1)
			for _, n := range byName {
				if fa.self[n] > best {
					dom, best = n, fa.self[n]
				}
			}
			st := &segs[dom]
			switch fa.verdict {
			case PathFast:
				st.DominantFast++
			case PathSlow:
				st.DominantSlow++
			default:
				st.DominantNone++
			}
		}
	}
	for n := range segs {
		if segs[n].Count > 0 {
			segs[n].Name = SpanName(n).String()
			rep.Segments = append(rep.Segments, segs[n])
		}
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
