package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file exports recorded event streams in the Chrome trace-event JSON
// format, loadable in chrome://tracing and https://ui.perfetto.dev. Each
// tile becomes a "process"; each component becomes a "thread" inside it, so
// the timeline shows per-tile lanes for DTU commands, TileMux scheduling,
// kernel activity, and NoC traffic.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"` // microseconds
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	ID   string                 `json:"id,omitempty"` // flow-event binding id
	BP   string                 `json:"bp,omitempty"` // flow binding point
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ps to chrome microseconds.
func usOf(ps int64) float64 { return float64(ps) / 1e6 }

// chromePidStride spaces the runs of one trace: recorder i's tiles appear
// as processes i*chromePidStride + tile, and its global counter tracks on
// the last pid of that window.
const chromePidStride = 1000

// WriteChrome writes the recorders' events, spans and sampled series (e.g.
// one recorder per benchmarked System) into a single Chrome trace; recorder
// i's tiles appear as processes i*1000 + tile.
//
// Events are ordered by (run, timestamp): each recorder's stream is written
// in full before the next one's, and is internally time-ordered because a
// recorder appends in simulated-time order. The run index is the recorder's
// position in recs — with auto-registered recorders from a parallel sweep
// that is completion order, not sweep-point order, so two traces of the
// same experiment may list the same runs under different pids.
func WriteChrome(w io.Writer, recs []*Recorder) error {
	var out chromeFile
	type lane struct{ pid, tid int }
	seen := make(map[lane]bool)
	name := func(pid, tid int, ri int, comp Component) {
		l := lane{pid, tid}
		if seen[l] {
			return
		}
		seen[l] = true
		proc := fmt.Sprintf("tile %d", pid%chromePidStride)
		if len(recs) > 1 {
			proc = fmt.Sprintf("sys%d tile %d", ri, pid%chromePidStride)
		}
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]interface{}{"name": proc}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]interface{}{"name": comp.String()}},
		)
	}
	for ri, r := range recs {
		for i := range r.Events() {
			ev := &r.events[i]
			pid := ri*chromePidStride + int(ev.Tile)
			tid := int(ev.Comp) + 1 // tid 0 reserved for process metadata
			name(pid, tid, ri, ev.Comp)
			ce := chromeEvent{
				Name: ev.Kind.String(),
				Cat:  ev.Comp.String(),
				Ts:   usOf(ev.At),
				Pid:  pid,
				Tid:  tid,
				Args: chromeArgs(ev),
			}
			if ev.Dur > 0 {
				ce.Ph = "X"
				ce.Dur = usOf(ev.Dur)
			} else {
				ce.Ph = "i"
				ce.S = "t" // thread-scoped instant
			}
			if ev.Kind == KindDTUCmd {
				ce.Name = "dtu_" + DTUCmd(ev.Arg0).String()
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
		writeChromeSpans(&out, r, ri, name)
		writeChromeCounters(&out, r, ri)
	}
	out.DisplayTimeUnit = "ns"
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// spanLaneName names the per-component span lane (below the event lanes).
type spanLane struct{ pid, tid int }

// writeChromeSpans renders the recorder's causal spans as duration slices on
// dedicated per-component lanes, then stitches each flow's spans together
// with Perfetto flow events ("s"/"t"/"f") so the UI draws connected arrows
// from the sending DTU across the NoC to the receiving tile.
func writeChromeSpans(out *chromeFile, r *Recorder, ri int,
	name func(pid, tid, ri int, comp Component)) {
	spans := r.Spans()
	if len(spans) == 0 {
		return
	}
	// Slices must have nonzero duration for flow arrows to bind; clamp
	// instant spans to 1 ns.
	const minDur = 0.001 // µs
	laneSeen := make(map[spanLane]bool)
	type anchor struct{ pid, tid int }
	anchors := make([]anchor, len(spans))
	byFlow := make(map[uint64][]int)
	var flowOrder []uint64
	for i := range spans {
		s := &spans[i]
		pid := ri*chromePidStride + int(s.Tile)
		// Span lanes sit after the component event lanes (tid 0 is
		// metadata, 1..numComponents are event lanes).
		tid := 1 + int(numComponents) + int(s.Comp)
		anchors[i] = anchor{pid, tid}
		name(pid, 1+int(s.Comp), ri, s.Comp) // ensure the process is named
		l := spanLane{pid, tid}
		if !laneSeen[l] {
			laneSeen[l] = true
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
					Args: map[string]interface{}{"name": s.Comp.String() + " flows"}})
		}
		dur := usOf(s.Dur())
		if dur < minDur {
			dur = minDur
		}
		args := map[string]interface{}{
			"flow": s.Flow, "arg0": s.Arg0, "arg1": s.Arg1,
		}
		if s.Path != PathNone {
			args["path"] = s.Path.String()
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name.String(), Cat: "span", Ph: "X",
			Ts: usOf(s.At), Dur: dur, Pid: pid, Tid: tid, Args: args,
		})
		if len(byFlow[s.Flow]) == 0 {
			flowOrder = append(flowOrder, s.Flow)
		}
		byFlow[s.Flow] = append(byFlow[s.Flow], i)
	}
	// Flow arrows: one step per span, in causal (start-time) order. The
	// first step is "s" (start), intermediates "t" (step), the last "f"
	// (finish); bp "e" binds each step to the slice enclosing its
	// timestamp. Flow ids are namespaced per run so merged traces don't
	// cross-link.
	for _, flow := range flowOrder {
		idxs := byFlow[flow]
		if len(idxs) < 2 {
			continue // a single-span flow has no arrow to draw
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			return spans[idxs[a]].At < spans[idxs[b]].At
		})
		id := fmt.Sprintf("%d.%d", ri, flow)
		for step, i := range idxs {
			s := &spans[i]
			ce := chromeEvent{
				Name: "flow", Cat: "flow", Ts: usOf(s.At),
				Pid: anchors[i].pid, Tid: anchors[i].tid, ID: id,
			}
			switch step {
			case 0:
				ce.Ph = "s"
			case len(idxs) - 1:
				ce.Ph = "f"
				ce.BP = "e"
			default:
				ce.Ph = "t"
				ce.BP = "e"
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
}

// writeChromeCounters renders the recorder's sampled series as Perfetto
// counter tracks ("ph":"C"), so queue depths and utilization draw as area
// charts alongside the event and span lanes. Series for a specific tile
// (name "tileNN.component.what") attach to that tile's process; global
// series (engine, NoC) go to a per-run "metrics" pseudo-process at the last
// pid of the run's stride window.
func writeChromeCounters(out *chromeFile, r *Recorder, ri int) {
	sp := r.Sampler()
	if sp == nil {
		return
	}
	metricsPid := ri*chromePidStride + chromePidStride - 1
	namedMetricsPid := false
	for _, sr := range sp.Series() {
		pid := metricsPid
		var tile int
		if n, _ := fmt.Sscanf(sr.Name(), "tile%d.", &tile); n == 1 {
			pid = ri*chromePidStride + tile
		} else if !namedMetricsPid {
			namedMetricsPid = true
			proc := "metrics"
			if ri > 0 {
				proc = fmt.Sprintf("sys%d metrics", ri)
			}
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
					Args: map[string]interface{}{"name": proc}})
		}
		for i := 0; i < sr.Len(); i++ {
			t, v := sr.Sample(i)
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sr.Name(), Cat: "counter", Ph: "C",
				Ts: usOf(t), Pid: pid, Tid: 0,
				Args: map[string]interface{}{"value": v},
			})
		}
	}
}

// chromeArgs decodes an event's Arg fields into named values for the
// trace-viewer detail pane.
func chromeArgs(ev *Event) map[string]interface{} {
	switch ev.Kind {
	case KindCtxSwitch:
		return map[string]interface{}{
			"from": ev.Arg0, "to": ev.Arg1,
			"reason": SwitchReason(ev.Arg2).String(),
		}
	case KindDTUCmd:
		a := map[string]interface{}{
			"cmd": DTUCmd(ev.Arg0).String(), "ep": ev.Arg1, "bytes": ev.Arg2,
		}
		if ev.Arg3 != 0 {
			a["err"] = ev.Arg3
		}
		return a
	case KindCoreReqRaise, KindCoreReqDrain:
		return map[string]interface{}{"act": ev.Arg0, "depth": ev.Arg1}
	case KindTLBHit, KindTLBMiss, KindTLBEvict:
		return map[string]interface{}{
			"act": ev.Arg0, "vaddr": fmt.Sprintf("%#x", uint64(ev.Arg1)),
		}
	case KindPageFault:
		return map[string]interface{}{
			"act": ev.Arg0, "vaddr": fmt.Sprintf("%#x", uint64(ev.Arg1)),
			"perm": ev.Arg2,
		}
	case KindSyscall:
		return map[string]interface{}{"op": ev.Arg0, "act": ev.Arg1}
	case KindIrq:
		return map[string]interface{}{"pending": ev.Arg0}
	case KindNoCPacket:
		a := map[string]interface{}{
			"src": ev.Arg0, "dst": ev.Arg1, "bytes": ev.Arg2,
		}
		if ev.Arg3 == 0 {
			a["nacked"] = true
		}
		return a
	case KindActExit:
		return map[string]interface{}{"act": ev.Arg0, "code": ev.Arg1}
	default:
		return nil
	}
}
