package trace

import (
	"cmp"
	"io"
	"slices"
	"strconv"
	"strings"
)

// This file exports recorded span streams in the Chrome trace-event JSON
// format, loadable in chrome://tracing and https://ui.perfetto.dev. Each
// tile becomes a "process". Spans of flow 0 sit on one lane ("thread") per
// component; the spans of traced messages sit on a "<comp> flows" lane per
// component, and flow arrows connect each message's spans from the sending
// DTU across the NoC to the receiving tile. Sampled series become counter
// tracks.
//
// The writer streams: it appends each entry as compact JSON to a byte
// buffer and hands the buffer to w whenever it fills, so its memory does
// not grow with the output.

// chromePidStride spaces the runs of one trace: recorder i's tiles appear
// as processes i*chromePidStride + tile, and its global counter tracks on
// the last pid of that window.
const chromePidStride = 1000

// flushBytes is the buffer size at which a streamWriter flushes to w.
const flushBytes = 1 << 16

// minFlowSlice is the duration (ps) a flow span's slice is clamped to: a
// flow arrow only binds to a slice of nonzero duration.
const minFlowSlice = 1000

// WriteChrome writes the recorders' spans and sampled series (e.g. one
// recorder per benchmarked System) into a single Chrome trace; recorder
// i's tiles appear as processes i*1000 + tile.
//
// Entries are ordered by run: each recorder's spans are written in stream
// order, then its flow arrows, then its counter tracks, before the next
// recorder's. The run index is the recorder's position in recs — with
// auto-registered recorders from a parallel sweep that is completion
// order, not sweep-point order, so two traces of the same experiment may
// list the same runs under different pids.
func WriteChrome(w io.Writer, recs []*Recorder) error {
	cw := &chromeWriter{streamWriter: streamWriter{w: w}, multi: len(recs) > 1, named: map[[2]int]bool{}}
	cw.buf = append(cw.buf, `{"traceEvents":[`...)
	for ri, r := range recs {
		cw.spans(ri, r.Spans())
		cw.arrows(ri, r.Spans())
		cw.counters(ri, r.Sampler())
	}
	cw.buf = append(cw.buf, "\n],\"displayTimeUnit\":\"ns\"}\n"...)
	cw.flush()
	return cw.err
}

// streamWriter buffers JSON appended to buf and hands it to w in chunks of
// about flushBytes, so a writer's memory does not grow with its output.
type streamWriter struct {
	w   io.Writer
	buf []byte
	err error // first write error; later flushes are dropped
}

func (sw *streamWriter) flush() {
	if sw.err == nil {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

// next returns the buffer to append the next element to, flushing it first
// once it is full.
func (sw *streamWriter) next() []byte {
	if len(sw.buf) >= flushBytes {
		sw.flush()
	}
	return sw.buf
}

// chromeWriter is the state of one streaming WriteChrome pass.
type chromeWriter struct {
	streamWriter
	n     int  // entries started
	multi bool // more than one run: process names carry the run
	// named holds the (pid, tid) lanes whose metadata is written; tid 0
	// stands for the process itself. last caches the most recent lane
	// (span lanes have tid >= 1, so the zero value matches none).
	named map[[2]int]bool
	last  [2]int
}

// entry starts the next element of the traceEvents array, one per line.
func (cw *chromeWriter) entry() []byte {
	b := cw.next()
	if cw.n > 0 {
		b = append(b, ',')
	}
	cw.n++
	return append(b, "\n{"...)
}

// meta writes a process_name or thread_name metadata entry.
func (cw *chromeWriter) meta(kind string, pid, tid int, name string) {
	b := cw.entry()
	b = append(b, `"name":`...)
	b = appendString(b, kind)
	b = appendLane(append(b, `,"ph":"M"`...), pid, tid)
	b = append(b, `,"args":{"name":`...)
	b = appendString(b, name)
	cw.buf = append(b, "}}"...)
}

// process names process pid of run ri once.
func (cw *chromeWriter) process(ri, pid int, name string) {
	if cw.named[[2]int{pid, 0}] {
		return
	}
	cw.named[[2]int{pid, 0}] = true
	if cw.multi {
		name = "sys" + strconv.Itoa(ri) + " " + name
	}
	cw.meta("process_name", pid, 0, name)
}

// lane returns the pid of tile in run ri and names it and its lane tid
// (component comp) once.
func (cw *chromeWriter) lane(ri int, tile int32, tid int, comp Component) int {
	pid := ri*chromePidStride + int(tile)
	if key := [2]int{pid, tid}; key != cw.last {
		cw.last = key
		if !cw.named[key] {
			cw.named[key] = true
			cw.process(ri, pid, "tile "+strconv.Itoa(int(tile)))
			name := comp.String()
			if tid > int(numComponents) {
				name += " flows"
			}
			cw.meta("thread_name", pid, tid, name)
		}
	}
	return pid
}

// spanTid is the lane of a span: tid 0 is the process metadata, 1..7 the
// component lanes of flow 0, and 8..14 the component lanes of flows.
func spanTid(s *Span) int {
	if s.Flow == 0 {
		return 1 + int(s.Comp)
	}
	return 1 + int(numComponents) + int(s.Comp)
}

// spans writes one slice per span: flow-0 spans of zero length become
// instants, flow spans are clamped to minFlowSlice so arrows bind.
func (cw *chromeWriter) spans(ri int, spans []Span) {
	for i := range spans {
		s := &spans[i]
		tid := spanTid(s)
		pid := cw.lane(ri, s.Tile, tid, s.Comp)
		var dur uint64
		if s.End > s.At {
			dur = uint64(s.End) - uint64(s.At)
		}
		b := cw.entry()
		b = append(b, `"name":`...)
		b = appendString(b, s.Name.String())
		b = append(b, `,"cat":`...)
		b = appendString(b, s.Comp.String())
		if s.Flow == 0 && dur == 0 {
			b = append(b, `,"ph":"i","s":"t","ts":`...)
			b = appendUs(b, s.At)
		} else {
			if s.Flow != 0 && dur < minFlowSlice {
				dur = minFlowSlice
			}
			b = append(b, `,"ph":"X","ts":`...)
			b = appendUs(b, s.At)
			b = append(b, `,"dur":`...)
			b = appendUsAbs(b, dur)
		}
		b = appendLane(b, pid, tid)
		b = append(b, `,"args":{`...)
		open := len(b)
		if s.Flow != 0 {
			b = append(b, `"flow":`...)
			b = strconv.AppendUint(b, s.Flow, 10)
		}
		b = appendArg(b, open, "arg0", s.Arg0)
		b = appendArg(b, open, "arg1", s.Arg1)
		b = appendArg(b, open, "arg2", s.Arg2)
		if s.Path != PathNone {
			b = appendKey(b, open, "path")
			b = appendString(b, s.Path.String())
		}
		cw.buf = append(b, "}}"...)
	}
}

// arrows stitches each flow's spans together with flow events in start-time
// order: "s" at the first span, "t" at intermediates, "f" at the last; bp
// "e" binds each later step to the slice enclosing its timestamp. Flow ids
// are namespaced per run so merged traces don't cross-link, and a flow of
// one span has no arrow.
func (cw *chromeWriter) arrows(ri int, spans []Span) {
	type step struct {
		flow uint64
		at   int64
		i    int32
	}
	var order []step
	for i := range spans {
		if s := &spans[i]; s.Flow != 0 {
			order = append(order, step{s.Flow, s.At, int32(i)})
		}
	}
	slices.SortFunc(order, func(a, b step) int {
		if c := cmp.Compare(a.flow, b.flow); c != 0 {
			return c
		}
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		flow := order[lo].flow
		for hi = lo + 1; hi < len(order) && order[hi].flow == flow; hi++ {
		}
		if hi-lo < 2 {
			continue
		}
		for k := lo; k < hi; k++ {
			s := &spans[order[k].i]
			ph := `"t"`
			switch k {
			case lo:
				ph = `"s"`
			case hi - 1:
				ph = `"f"`
			}
			b := cw.entry()
			b = append(b, `"name":"flow","cat":"flow","ph":`...)
			b = append(b, ph...)
			b = append(b, `,"ts":`...)
			b = appendUs(b, s.At)
			b = appendLane(b, ri*chromePidStride+int(s.Tile), spanTid(s))
			b = append(b, `,"id":"`...)
			b = strconv.AppendInt(b, int64(ri), 10)
			b = append(b, '.')
			b = strconv.AppendUint(b, flow, 10)
			b = append(b, '"')
			if k > lo {
				b = append(b, `,"bp":"e"`...)
			}
			cw.buf = append(b, '}')
		}
	}
}

// counters renders the sampled series as Perfetto counter tracks
// ("ph":"C"), so queue depths and utilization draw as area charts
// alongside the span lanes. Series for a specific tile (name
// "tileNN.component.what") attach to that tile's process; global series
// (engine, NoC) go to a per-run "metrics" pseudo-process at the last pid of
// the run's stride window.
func (cw *chromeWriter) counters(ri int, sp *Sampler) {
	if sp == nil {
		return
	}
	for _, sr := range sp.Series() {
		pid, proc := ri*chromePidStride+chromePidStride-1, "metrics"
		if tile, ok := seriesTile(sr.Name()); ok {
			pid, proc = ri*chromePidStride+tile, "tile "+strconv.Itoa(tile)
		}
		cw.process(ri, pid, proc)
		name := appendString(nil, sr.Name())
		for i := 0; i < sr.Len(); i++ {
			t, v := sr.Sample(i)
			b := cw.entry()
			b = append(b, `"name":`...)
			b = append(b, name...)
			b = append(b, `,"cat":"counter","ph":"C","ts":`...)
			b = appendUs(b, t)
			b = append(b, `,"pid":`...)
			b = strconv.AppendInt(b, int64(pid), 10)
			b = append(b, `,"args":{"value":`...)
			b = strconv.AppendInt(b, v, 10)
			cw.buf = append(b, "}}"...)
		}
	}
}

// seriesTile parses the tile of a per-tile series name "tileNN.comp.what".
func seriesTile(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "tile")
	digits, _, dot := strings.Cut(rest, ".")
	tile, err := strconv.Atoi(digits)
	return tile, ok && dot && err == nil
}

// appendLane appends the "pid" and "tid" members of an entry.
func appendLane(b []byte, pid, tid int) []byte {
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// appendKey appends an object key, preceded by a comma unless it is the
// first member after offset open.
func appendKey(b []byte, open int, key string) []byte {
	if len(b) > open {
		b = append(b, ',')
	}
	b = appendString(b, key)
	return append(b, ':')
}

// appendArg appends a nonzero integer member.
func appendArg(b []byte, open int, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, open, key), v, 10)
}

// appendUs appends a picosecond timestamp as exact decimal microseconds.
func appendUs(b []byte, ps int64) []byte {
	if ps < 0 {
		return appendUsAbs(append(b, '-'), -uint64(ps))
	}
	return appendUsAbs(b, uint64(ps))
}

// appendUsAbs appends ps picoseconds as decimal microseconds, with at most
// six fractional digits and no trailing zeros.
func appendUsAbs(b []byte, ps uint64) []byte {
	b = strconv.AppendUint(b, ps/1e6, 10)
	frac := ps % 1e6
	if frac == 0 {
		return b
	}
	d := [7]byte{'.'}
	for i := 6; i > 0; i-- {
		d[i] = byte('0' + frac%10)
		frac /= 10
	}
	n := len(d)
	for d[n-1] == '0' {
		n--
	}
	return append(b, d[:n]...)
}

// appendString appends s as a JSON string, escaping quotes, backslashes
// and control characters.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
