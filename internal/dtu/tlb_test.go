package dtu

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTLBLookupInsert(t *testing.T) {
	tlb := NewTLB()
	if _, ok := tlb.Lookup(1, 0x5000, PermR); ok {
		t.Error("lookup in empty TLB hit")
	}
	tlb.Insert(1, 0x5000, 0x84000, PermRW)
	pa, ok := tlb.Lookup(1, 0x5123, PermR)
	if !ok || pa != 0x84123 {
		t.Errorf("lookup = (%#x,%v), want (0x84123,true)", pa, ok)
	}
	// Different activity, same page: miss.
	if _, ok := tlb.Lookup(2, 0x5000, PermR); ok {
		t.Error("cross-activity lookup hit")
	}
}

func TestTLBPermissionUpgradeMiss(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(1, 0x5000, 0x84000, PermR)
	if _, ok := tlb.Lookup(1, 0x5000, PermW); ok {
		t.Error("write lookup on read-only entry hit")
	}
	tlb.Insert(1, 0x5000, 0x84000, PermRW)
	if _, ok := tlb.Lookup(1, 0x5000, PermW); !ok {
		t.Error("write lookup after upgrade missed")
	}
	if tlb.Len() != 1 {
		t.Errorf("len = %d, want 1 (upgrade must not duplicate)", tlb.Len())
	}
}

func TestTLBFIFOEviction(t *testing.T) {
	tlb := NewTLB()
	for i := 0; i < tlbEntries+1; i++ {
		tlb.Insert(1, uint64(i)<<PageShift, uint64(i)<<PageShift, PermR)
	}
	if tlb.Len() != tlbEntries {
		t.Errorf("len = %d, want %d", tlb.Len(), tlbEntries)
	}
	// Entry 0 is the FIFO victim.
	if _, ok := tlb.Lookup(1, 0, PermR); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := tlb.Lookup(1, 1<<PageShift, PermR); !ok {
		t.Error("second-oldest entry was evicted")
	}
}

func TestTLBInvalidateAct(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(1, 0x1000, 0x1000, PermR)
	tlb.Insert(2, 0x1000, 0x2000, PermR)
	tlb.Insert(1, 0x2000, 0x3000, PermR)
	tlb.InvalidateAct(1)
	if tlb.Len() != 1 {
		t.Errorf("len after invalidate = %d, want 1", tlb.Len())
	}
	if _, ok := tlb.Lookup(2, 0x1000, PermR); !ok {
		t.Error("other activity's entry was invalidated")
	}
}

func TestTLBInvalidatePage(t *testing.T) {
	tlb := NewTLB()
	tlb.Insert(1, 0x1000, 0x1000, PermR)
	tlb.InvalidatePage(1, 0x1234) // same page
	if tlb.Len() != 0 {
		t.Errorf("len = %d, want 0", tlb.Len())
	}
	tlb.InvalidatePage(1, 0x9999) // absent: no-op
}

// TestTLBTranslationProperty: for any inserted mapping, lookups within the
// page translate offset-exactly, and lookups outside miss.
func TestTLBTranslationProperty(t *testing.T) {
	f := func(act uint8, vp, pp uint16, off uint16) bool {
		tlb := NewTLB()
		vaddr := uint64(vp) << PageShift
		paddr := uint64(pp) << PageShift
		tlb.Insert(ActID(act), vaddr, paddr, PermRW)
		o := uint64(off) % PageSize
		got, ok := tlb.Lookup(ActID(act), vaddr+o, PermR)
		if !ok || got != paddr+o {
			return false
		}
		// A different page must miss (unless it happens to equal vp).
		other := (uint64(vp) + 1) << PageShift
		_, ok = tlb.Lookup(ActID(act), other, PermR)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refTLB is the map-plus-FIFO-slice TLB the fixed array replaced, kept as
// the reference TestTLBMatchesReference compares against.
type refTLB struct {
	entries      map[refKey]refVal
	fifo         []refKey // eviction order
	hits, misses int64
}

type refKey struct {
	act   ActID
	vpage uint64
}

type refVal struct {
	ppage uint64
	perm  Perm
}

func newRefTLB() *refTLB { return &refTLB{entries: make(map[refKey]refVal)} }

func (t *refTLB) lookup(act ActID, vaddr uint64, perm Perm) (uint64, bool) {
	v, found := t.entries[refKey{act, vaddr >> PageShift}]
	if !found || !v.perm.Has(perm) {
		t.misses++
		return 0, false
	}
	t.hits++
	return v.ppage<<PageShift | vaddr&(PageSize-1), true
}

func (t *refTLB) insert(act ActID, vaddr, paddr uint64, perm Perm) (victimAct ActID, victimVaddr uint64, evicted bool) {
	k := refKey{act, vaddr >> PageShift}
	if _, exists := t.entries[k]; !exists {
		if len(t.entries) >= tlbEntries {
			victim := t.fifo[0]
			t.fifo = t.fifo[1:]
			delete(t.entries, victim)
			victimAct, victimVaddr, evicted = victim.act, victim.vpage<<PageShift, true
		}
		t.fifo = append(t.fifo, k)
	}
	t.entries[k] = refVal{ppage: paddr >> PageShift, perm: perm}
	return victimAct, victimVaddr, evicted
}

func (t *refTLB) invalidatePage(act ActID, vaddr uint64) {
	k := refKey{act, vaddr >> PageShift}
	if _, ok := t.entries[k]; !ok {
		return
	}
	delete(t.entries, k)
	for i, f := range t.fifo {
		if f == k {
			t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
			break
		}
	}
}

func (t *refTLB) invalidateAct(act ActID) {
	keep := t.fifo[:0]
	for _, k := range t.fifo {
		if k.act == act {
			delete(t.entries, k)
		} else {
			keep = append(keep, k)
		}
	}
	t.fifo = keep
}

// TestTLBMatchesReference drives the TLB and refTLB with the same seeded
// random operation sequences and requires equal results after every step:
// lookups (address, hit), inserts (victim), Len and the hit/miss counters.
// Three activities, 48 pages and three permission sets make keys collide
// often and push the TLB past its 32 entries, so evictions, in-place
// updates and invalidations of evicted or absent entries all occur.
func TestTLBMatchesReference(t *testing.T) {
	perms := []Perm{PermR, PermW, PermRW}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tlb, ref := NewTLB(), newRefTLB()
		for step := 0; step < 2000; step++ {
			act := ActID(rng.Intn(3))
			vaddr := uint64(rng.Intn(48))<<PageShift | uint64(rng.Intn(PageSize))
			perm := perms[rng.Intn(len(perms))]
			var got, want [3]uint64
			switch op := rng.Intn(10); {
			case op < 4:
				pa, ok := tlb.Lookup(act, vaddr, perm)
				rpa, rok := ref.lookup(act, vaddr, perm)
				got, want = [3]uint64{pa, b2u(ok)}, [3]uint64{rpa, b2u(rok)}
			case op < 8:
				paddr := uint64(rng.Intn(1024)) << PageShift
				va, vv, ev := tlb.Insert(act, vaddr, paddr, perm)
				rva, rvv, rev := ref.insert(act, vaddr, paddr, perm)
				got, want = [3]uint64{uint64(va), vv, b2u(ev)}, [3]uint64{uint64(rva), rvv, b2u(rev)}
			case op < 9:
				tlb.InvalidatePage(act, vaddr)
				ref.invalidatePage(act, vaddr)
			default:
				tlb.InvalidateAct(act)
				ref.invalidateAct(act)
			}
			if got != want || tlb.Len() != len(ref.entries) || tlb.Hits != ref.hits || tlb.Misses != ref.misses {
				t.Fatalf("seed %d step %d: result %v len %d hits %d misses %d, reference %v len %d hits %d misses %d",
					seed, step, got, tlb.Len(), tlb.Hits, tlb.Misses, want, len(ref.entries), ref.hits, ref.misses)
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
