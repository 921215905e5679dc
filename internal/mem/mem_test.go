package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"m3v/internal/sim"
)

func TestReadWriteRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig(1<<20))
	data := []byte("hello, dram")
	m.WriteAt(4096, data)
	got := make([]byte, len(data))
	m.ReadAt(4096, got)
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
	if m.Reads != 1 || m.Writes != 1 {
		t.Errorf("reads=%d writes=%d, want 1/1", m.Reads, m.Writes)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig(4096))
	for _, c := range []struct {
		off uint64
		n   int
	}{
		{4096, 1},
		{4000, 200},
		{4095, 2},
		{1 << 40, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access off=%d n=%d did not panic", c.off, c.n)
				}
			}()
			m.ReadAt(c.off, make([]byte, c.n))
		}()
	}
}

// TestReadZeroesReusedBuffer reads into a dirty buffer across a written
// chunk and one that was never written: every byte not stored must come
// back as zero, not as the buffer's old contents.
func TestReadZeroesReusedBuffer(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig(1<<20))
	m.WriteAt(1<<chunkBits-1, []byte("xy")) // last byte of chunk 0, first of chunk 1
	dirty := func() []byte { return bytes.Repeat([]byte{0xEE}, 8) }
	for _, c := range []struct {
		off  uint64
		want []byte
	}{
		{1<<chunkBits - 4, []byte{0, 0, 0, 'x', 'y', 0, 0, 0}},
		{2<<chunkBits - 4, make([]byte, 8)}, // end of chunk 1, chunk 2 never written
		{5 << chunkBits, make([]byte, 8)},   // no chunk at all
	} {
		got := dirty()
		m.ReadAt(c.off, got)
		if !bytes.Equal(got, c.want) {
			t.Errorf("ReadAt(%#x) into a dirty buffer = %x, want %x", c.off, got, c.want)
		}
	}
}

func TestAccessDelayContention(t *testing.T) {
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig(4096))
	// 3200 bytes at 3.2 GB/s = 1us serialization, after 100ns latency.
	d1 := m.AccessDelay(3200)
	if want := 100*sim.Nanosecond + sim.Microsecond; d1 != want {
		t.Errorf("first access delay = %v, want %v", d1, want)
	}
	// Second access queues behind the first.
	d2 := m.AccessDelay(3200)
	if want := 100*sim.Nanosecond + sim.Microsecond + d1; d2 != want {
		t.Errorf("second access delay = %v, want %v", d2, want)
	}
}

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(1 << 20)
	off1, err := a.Alloc(4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	off2, err := a.Alloc(4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if off1 == off2 {
		t.Error("overlapping allocations")
	}
	if off1%4096 != 0 || off2%4096 != 0 {
		t.Error("misaligned allocations")
	}
	if got := a.TotalFree(); got != 1<<20-8192 {
		t.Errorf("free = %d, want %d", got, 1<<20-8192)
	}
	a.Free(off1, 4096)
	a.Free(off2, 4096)
	if got := a.TotalFree(); got != 1<<20 {
		t.Errorf("after free, free = %d, want %d", got, 1<<20)
	}
	if a.Fragments() != 1 {
		t.Errorf("fragments = %d, want 1 (full merge)", a.Fragments())
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(8192)
	if _, err := a.Alloc(8192, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1, 1); err == nil {
		t.Error("allocation from empty allocator succeeded")
	}
}

func TestAllocatorAlignmentPadding(t *testing.T) {
	a := NewAllocator(1 << 16)
	if _, err := a.Alloc(100, 1); err != nil { // leaves next free at 100
		t.Fatal(err)
	}
	off, err := a.Alloc(4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if off != 4096 {
		t.Errorf("aligned alloc at %d, want 4096", off)
	}
	// The padding gap [100,4096) must remain allocatable.
	off2, err := a.Alloc(3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != 100 {
		t.Errorf("gap alloc at %d, want 100", off2)
	}
}

// TestAllocatorInvariantProperty allocates and frees randomly and checks that
// the free list stays sorted, non-overlapping, and conserves bytes.
func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const total = 1 << 16
		a := NewAllocator(total)
		type alloc struct{ off, size uint64 }
		var live []alloc
		var liveBytes uint64
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := uint64(rng.Intn(1024) + 1)
				align := uint64(1) << uint(rng.Intn(7))
				off, err := a.Alloc(size, align)
				if err != nil {
					continue
				}
				if off%align != 0 {
					return false
				}
				for _, l := range live {
					if off < l.off+l.size && l.off < off+size {
						return false // overlap with a live allocation
					}
				}
				live = append(live, alloc{off, size})
				liveBytes += size
			} else {
				i := rng.Intn(len(live))
				a.Free(live[i].off, live[i].size)
				liveBytes -= live[i].size
				live = append(live[:i], live[i+1:]...)
			}
			if a.TotalFree() < total-liveBytes {
				return false // allocator lost bytes (padding may be temporarily free)
			}
		}
		// Free everything: the allocator must return to one full span.
		for _, l := range live {
			a.Free(l.off, l.size)
		}
		return a.TotalFree() == total && a.Fragments() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
