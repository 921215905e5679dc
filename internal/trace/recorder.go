package trace

import (
	"hash/fnv"
	"sync"
)

// Recorder collects the structured event stream of one simulation engine
// and owns its metrics registry. The event stream is disabled by default;
// Enable turns it on. Metrics are always live.
//
// All emit helpers are safe on a nil receiver and cost only the
// enabled-check when tracing is off: no allocation, no formatting.
//
// A Recorder is not safe for concurrent use; the simulation engine's strict
// one-at-a-time hand-off provides the necessary serialization.
type Recorder struct {
	enabled  bool
	events   []Event
	spans    []Span
	nextFlow uint64
	metrics  *Metrics
	sampler  *Sampler
}

// NewRecorder returns a recorder with an empty metrics registry and the
// event stream disabled. If collection has been requested globally (see
// SetAutoRegister), the recorder registers itself and honours the global
// event-stream default.
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

// Enable turns the event stream on.
func (r *Recorder) Enable() { r.enabled = true }

// Disable turns the event stream off. Already-recorded events are kept.
func (r *Recorder) Disable() { r.enabled = false }

// Enabled reports whether events are being recorded. A nil recorder is
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

// Events returns the recorded stream. The slice is owned by the recorder;
// callers must not modify it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Reset drops all recorded events and spans (metrics and the flow-ID
// sequence are untouched). Outstanding SpanRefs are invalidated.
func (r *Recorder) Reset() {
	if r != nil {
		r.events = r.events[:0]
		r.spans = r.spans[:0]
	}
}

// Emit appends a raw event if the stream is enabled.
//
//m3v:noalloc
func (r *Recorder) Emit(ev Event) {
	if r == nil || !r.enabled {
		return
	}
	//m3vlint:ignore noalloc enabled-path event buffer grows amortized; the disabled fast path above allocates nothing
	r.events = append(r.events, ev)
}

// CtxSwitch records a TileMux context switch from activity `from` to `to`.
//
//m3v:noalloc
func (r *Recorder) CtxSwitch(at, dur int64, tile int, from, to int64, reason SwitchReason) {
	if r == nil || !r.enabled {
		return
	}
	//m3vlint:ignore noalloc enabled-path event buffer grows amortized; the disabled fast path above allocates nothing
	r.events = append(r.events, Event{
		At: at, Dur: dur, Tile: int32(tile), Comp: CompTileMux, Kind: KindCtxSwitch,
		Arg0: from, Arg1: to, Arg2: int64(reason),
	})
}

// DTUCmd records one unprivileged DTU command with its blocking duration,
// payload size and error code (0 = success).
//
//m3v:noalloc
func (r *Recorder) DTUCmd(at, dur int64, tile int, cmd DTUCmd, ep, bytes, errCode int64) {
	if r == nil || !r.enabled {
		return
	}
	//m3vlint:ignore noalloc enabled-path event buffer grows amortized; the disabled fast path above allocates nothing
	r.events = append(r.events, Event{
		At: at, Dur: dur, Tile: int32(tile), Comp: CompDTU, Kind: KindDTUCmd,
		Arg0: int64(cmd), Arg1: ep, Arg2: bytes, Arg3: errCode,
	})
}

// CoreReq records a core-request raise (kind KindCoreReqRaise) or drain
// (KindCoreReqDrain) for the given activity, with the queue depth after the
// operation.
func (r *Recorder) CoreReq(at int64, tile int, kind Kind, act, depth int64) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{
		At: at, Tile: int32(tile), Comp: CompDTU, Kind: kind,
		Arg0: act, Arg1: depth,
	})
}

// TLB records a TLB hit, miss, or eviction.
func (r *Recorder) TLB(at int64, tile int, kind Kind, act int64, vaddr uint64) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{
		At: at, Tile: int32(tile), Comp: CompDTU, Kind: kind,
		Arg0: act, Arg1: int64(vaddr),
	})
}

// PageFault records a major fault forwarded to the activity's pager.
func (r *Recorder) PageFault(at int64, tile int, act int64, vaddr uint64, perm int64) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{
		At: at, Tile: int32(tile), Comp: CompTileMux, Kind: KindPageFault,
		Arg0: act, Arg1: int64(vaddr), Arg2: perm,
	})
}

// Syscall records one controller system call with its handling duration.
func (r *Recorder) Syscall(at, dur int64, tile int, op, act int64) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{
		At: at, Dur: dur, Tile: int32(tile), Comp: CompKernel, Kind: KindSyscall,
		Arg0: op, Arg1: act,
	})
}

// Irq records a TileMux interrupt with the pending core-request depth.
func (r *Recorder) Irq(at int64, tile int, pending int64) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{
		At: at, Tile: int32(tile), Comp: CompTileMux, Kind: KindIrq, Arg0: pending,
	})
}

// NoCPacket records one delivery attempt at the destination tile. The event
// is stamped at the attempt's transmit (enqueue) time with the wire time as
// its duration, so At+Dur is the dequeue edge.
//
//m3v:noalloc
func (r *Recorder) NoCPacket(at, dur int64, src, dst int, size int64, delivered bool) {
	if r == nil || !r.enabled {
		return
	}
	ok := int64(0)
	if delivered {
		ok = 1
	}
	//m3vlint:ignore noalloc enabled-path event buffer grows amortized; the disabled fast path above allocates nothing
	r.events = append(r.events, Event{
		At: at, Dur: dur, Tile: int32(dst), Comp: CompNoC, Kind: KindNoCPacket,
		Arg0: int64(src), Arg1: int64(dst), Arg2: size, Arg3: ok,
	})
}

// ActExit records an activity exit notification at the controller.
func (r *Recorder) ActExit(at int64, tile int, act, code int64) {
	if r == nil || !r.enabled {
		return
	}
	r.events = append(r.events, Event{
		At: at, Tile: int32(tile), Comp: CompKernel, Kind: KindActExit,
		Arg0: act, Arg1: code,
	})
}

// Hash returns a 64-bit FNV-1a digest over the serialized event stream. Two
// runs of a deterministic model must produce identical hashes.
func (r *Recorder) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range r.Events() {
		ev := &r.events[i]
		put(ev.At)
		put(ev.Dur)
		put(int64(ev.Tile)<<16 | int64(ev.Comp)<<8 | int64(ev.Kind))
		put(ev.Arg0)
		put(ev.Arg1)
		put(ev.Arg2)
		put(ev.Arg3)
	}
	return h.Sum64()
}

// CountKind reports how many recorded events have the given kind.
func (r *Recorder) CountKind(k Kind) int64 {
	var n int64
	for i := range r.Events() {
		if r.events[i].Kind == k {
			n++
		}
	}
	return n
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
// event stream enabled.
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
