// Package mem models the memory tiles of the platform: DDR4 DRAM behind a
// DTU (paper Figure 4 shows two such tiles). The model stores real bytes and
// charges a fixed access latency plus bandwidth-dependent serialization with
// FCFS contention.
package mem

import (
	"fmt"

	"m3v/internal/sim"
)

// The backing store's layout: 4 KiB pages, grouped 16 to a map entry so
// the map costs one entry per 64 KiB of address space touched.
const (
	pageBits  = 12
	pageSize  = 1 << pageBits
	groupBits = 4
	groupMask = 1<<groupBits - 1
)

// pageGroup holds 16 consecutive pages. A page holds the bytes up to its
// highest written offset, and nothing before its first write.
type pageGroup [1 << groupBits][]byte

// The DRAM timing model: the FPGA's DDR4 interface with ~100ns access latency
// and 3.2 GB/s sustained bandwidth.
const (
	accessLatency       = 100 * sim.Nanosecond // fixed access latency (row activation etc.)
	bwBps         int64 = 3_200_000_000        // sustained bandwidth in bytes/second
)

// Memory is one memory tile's DRAM. The backing store is sparse: a page
// grows on write to its highest written offset, so multi-hundred-megabyte
// tiles cost nothing until used, and a page written only at its start
// costs only those bytes.
type Memory struct {
	eng      *sim.Engine
	size     uint64
	groups   map[uint64]*pageGroup // by page number >> groupBits
	nextFree sim.Time              // FCFS contention point

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
		groups: make(map[uint64]*pageGroup),
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
	for pos := 0; pos < len(dst); {
		a := off + uint64(pos)
		po := int(a & (pageSize - 1))
		n := min(pageSize-po, len(dst)-pos)
		var pg []byte
		if g := m.groups[a>>(pageBits+groupBits)]; g != nil {
			pg = g[(a>>pageBits)&groupMask]
		}
		k := 0
		if po < len(pg) {
			k = copy(dst[pos:pos+n], pg[po:])
		}
		clear(dst[pos+k : pos+n])
		pos += n
	}
}

// WriteAt stores b at offset off. It panics if the range is out of bounds.
func (m *Memory) WriteAt(off uint64, b []byte) {
	if err := m.check(off, len(b)); err != nil {
		panic(err)
	}
	m.Writes++
	for pos := 0; pos < len(b); {
		a := off + uint64(pos)
		po := int(a & (pageSize - 1))
		n := min(pageSize-po, len(b)-pos)
		gi := a >> (pageBits + groupBits)
		g := m.groups[gi]
		if g == nil {
			g = new(pageGroup)
			m.groups[gi] = g
		}
		pg := &g[(a>>pageBits)&groupMask]
		if end := po + n; end > len(*pg) {
			*pg = growPage(*pg, end)
		}
		copy((*pg)[po:], b[pos:pos+n])
		pos += n
	}
}

// growPage extends page pg to end bytes, zero beyond its old length. The
// capacity at least doubles, up to the page size, so a page filled by
// small ascending writes is copied O(log) times.
func growPage(pg []byte, end int) []byte {
	if end <= cap(pg) {
		// Bytes past len were never written: make zeroed them.
		return pg[:end]
	}
	grown := make([]byte, end, min(max(end, 2*cap(pg)), pageSize))
	copy(grown, pg)
	return grown
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
