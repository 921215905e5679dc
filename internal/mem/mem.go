// Package mem models the memory tiles of the platform: DDR4 DRAM behind a
// DTU (paper Figure 4 shows two such tiles). The model stores real bytes and
// charges a fixed access latency plus bandwidth-dependent serialization with
// FCFS contention.
package mem

import (
	"fmt"

	"m3v/internal/sim"
)

// chunkBits sizes the sparse backing chunks (64 KiB).
const chunkBits = 16

// The DRAM timing model: the FPGA's DDR4 interface with ~100ns access latency
// and 3.2 GB/s sustained bandwidth.
const (
	accessLatency       = 100 * sim.Nanosecond // fixed access latency (row activation etc.)
	bwBps         int64 = 3_200_000_000        // sustained bandwidth in bytes/second
)

// Memory is one memory tile's DRAM. The backing store is sparse: chunks are
// allocated on first write, so multi-hundred-megabyte tiles cost nothing
// until used.
type Memory struct {
	eng      *sim.Engine
	size     uint64
	chunks   map[uint64][]byte
	nextFree sim.Time // FCFS contention point

	// Reads and Writes count completed accesses, for tests and reports.
	Reads, Writes int64
}

// Config holds the memory tile's capacity.
type Config struct {
	Size uint64
}

// DefaultConfig returns a memory tile of the given capacity.
func DefaultConfig(size uint64) Config { return Config{Size: size} }

// New creates a memory tile model.
func New(eng *sim.Engine, cfg Config) *Memory {
	return &Memory{
		eng:    eng,
		size:   cfg.Size,
		chunks: make(map[uint64][]byte),
	}
}

// Size reports the capacity in bytes.
func (m *Memory) Size() uint64 { return m.size }

// AccessDelay reserves the DRAM for a transfer of n bytes starting now and
// returns the delay until the transfer completes, including queueing behind
// earlier transfers.
func (m *Memory) AccessDelay(n int) sim.Time {
	// 3.2 GB/s is 312.5 ps per byte: a division, not a multiply.
	ser := sim.Time(int64(n) * int64(sim.Second) / bwBps)
	now := m.eng.Now()
	start := now
	if m.nextFree > start {
		start = m.nextFree
	}
	done := start + accessLatency + ser
	m.nextFree = done
	return done - now
}

// ReadAt fills dst with the bytes at offset off. Untouched memory reads as
// zeros, so dst may be a reused buffer. It panics if the range is out of
// bounds: callers (the DTU's PMP) must have validated it.
func (m *Memory) ReadAt(off uint64, dst []byte) {
	if err := m.check(off, len(dst)); err != nil {
		panic(err)
	}
	m.Reads++
	pos := 0
	for pos < len(dst) {
		ci := (off + uint64(pos)) >> chunkBits
		co := (off + uint64(pos)) & (1<<chunkBits - 1)
		span := int(1<<chunkBits - co)
		if span > len(dst)-pos {
			span = len(dst) - pos
		}
		if c := m.chunks[ci]; c != nil {
			copy(dst[pos:pos+span], c[co:])
		} else {
			clear(dst[pos : pos+span])
		}
		pos += span
	}
}

// WriteAt stores b at offset off. It panics if the range is out of bounds.
func (m *Memory) WriteAt(off uint64, b []byte) {
	if err := m.check(off, len(b)); err != nil {
		panic(err)
	}
	m.Writes++
	pos := 0
	for pos < len(b) {
		ci := (off + uint64(pos)) >> chunkBits
		co := (off + uint64(pos)) & (1<<chunkBits - 1)
		span := int(1<<chunkBits - co)
		if span > len(b)-pos {
			span = len(b) - pos
		}
		c := m.chunks[ci]
		if c == nil {
			c = make([]byte, 1<<chunkBits)
			m.chunks[ci] = c
		}
		copy(c[co:], b[pos:pos+span])
		pos += span
	}
}

func (m *Memory) check(off uint64, n int) error {
	if off > m.size || uint64(n) > m.size-off {
		return fmt.Errorf("mem: access [%#x,+%d) out of bounds (size %#x)", off, n, m.size)
	}
	return nil
}

// Allocator hands out non-overlapping regions of a memory tile. The kernel
// uses one per memory tile to back TileMux regions, activity memory, receive
// buffers, and file-system extents. Freeing merges adjacent regions.
type Allocator struct {
	free []span // sorted by offset, non-adjacent
}

type span struct {
	off, size uint64
}

// NewAllocator manages the range [0, size).
func NewAllocator(size uint64) *Allocator {
	return &Allocator{free: []span{{0, size}}}
}

// Alloc returns the offset of a region of the given size aligned to align
// (which must be a power of two, or 0/1 for no alignment).
func (a *Allocator) Alloc(size, align uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size allocation")
	}
	if align == 0 {
		align = 1
	}
	for i, s := range a.free {
		start := (s.off + align - 1) &^ (align - 1)
		pad := start - s.off
		if s.size < pad+size {
			continue
		}
		// Carve [start, start+size) out of s.
		var repl []span
		if pad > 0 {
			repl = append(repl, span{s.off, pad})
		}
		if rest := s.size - pad - size; rest > 0 {
			repl = append(repl, span{start + size, rest})
		}
		a.free = append(a.free[:i], append(repl, a.free[i+1:]...)...)
		return start, nil
	}
	return 0, fmt.Errorf("mem: out of memory (%d bytes, align %d)", size, align)
}

// Free returns a region to the allocator, merging with neighbours.
func (a *Allocator) Free(off, size uint64) {
	if size == 0 {
		return
	}
	// Find insertion point.
	i := 0
	for i < len(a.free) && a.free[i].off < off {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{off, size}
	// Merge with right neighbour.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Merge with left neighbour.
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// TotalFree reports the number of free bytes.
func (a *Allocator) TotalFree() uint64 {
	var t uint64
	for _, s := range a.free {
		t += s.size
	}
	return t
}

// Fragments reports the number of free spans.
func (a *Allocator) Fragments() int { return len(a.free) }
