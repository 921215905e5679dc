package dtu

// PageSize is the platform page size. Transfers are restricted to a single
// page (paper §3.6), which lets the vDTU check the TLB exactly once per
// command.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// tlbEntries is the capacity of the software-loaded TLB.
const tlbEntries = 32

// tlbEntry is one cached translation: a virtual page of one activity.
type tlbEntry struct {
	act   ActID
	perm  Perm
	vpage uint64
	ppage uint64
}

// TLB is the vDTU's software-loaded translation lookaside buffer. TileMux
// fills it through the privileged interface; commands that miss fail with
// ErrTLBMiss instead of injecting a page walk (paper §3.6: "we decided
// against interrupt injections in case of a TLB miss").
type TLB struct {
	// entries[:n] are the cached translations, oldest first (the FIFO
	// eviction order); no two share an (act, vpage) key.
	entries [tlbEntries]tlbEntry
	n       int

	// Hits and Misses count lookups, for tests and reports.
	Hits, Misses int64
}

// NewTLB returns an empty TLB.
func NewTLB() *TLB { return &TLB{} }

// find returns the index of act's translation of vpage, or -1.
func (t *TLB) find(act ActID, vpage uint64) int {
	for i := range t.entries[:t.n] {
		if e := &t.entries[i]; e.vpage == vpage && e.act == act {
			return i
		}
	}
	return -1
}

// Lookup translates a virtual address of the given activity, requiring perm.
// It reports the physical address and whether the translation was present
// with sufficient permissions. An entry with insufficient permissions is
// treated as a miss, forcing a TileMux upgrade.
func (t *TLB) Lookup(act ActID, vaddr uint64, perm Perm) (paddr uint64, ok bool) {
	i := t.find(act, vaddr>>PageShift)
	if i < 0 || !t.entries[i].perm.Has(perm) {
		t.Misses++
		return 0, false
	}
	t.Hits++
	return t.entries[i].ppage<<PageShift | vaddr&(PageSize-1), true
}

// Insert adds a translation, evicting the oldest entry when full; a
// translation already present is updated in place and keeps its age.
// Called by TileMux through the privileged interface. It reports the
// evicted entry's activity and virtual page address; evicted is false when
// no entry was displaced.
func (t *TLB) Insert(act ActID, vaddr, paddr uint64, perm Perm) (victimAct ActID, victimVaddr uint64, evicted bool) {
	vpage := vaddr >> PageShift
	i := t.find(act, vpage)
	if i < 0 {
		if t.n == tlbEntries {
			victim := t.entries[0]
			t.remove(0)
			victimAct, victimVaddr, evicted = victim.act, victim.vpage<<PageShift, true
		}
		i = t.n
		t.n++
	}
	t.entries[i] = tlbEntry{act: act, perm: perm, vpage: vpage, ppage: paddr >> PageShift}
	return victimAct, victimVaddr, evicted
}

// remove deletes entry i, keeping the others in FIFO order.
func (t *TLB) remove(i int) {
	copy(t.entries[i:t.n], t.entries[i+1:t.n])
	t.n--
}

// InvalidatePage removes one translation.
func (t *TLB) InvalidatePage(act ActID, vaddr uint64) {
	if i := t.find(act, vaddr>>PageShift); i >= 0 {
		t.remove(i)
	}
}

// InvalidateAct removes all translations of one activity (used when an
// activity exits or its address space changes wholesale).
func (t *TLB) InvalidateAct(act ActID) {
	keep := 0
	for _, e := range t.entries[:t.n] {
		if e.act != act {
			t.entries[keep] = e
			keep++
		}
	}
	t.n = keep
}

// Len reports the number of cached translations.
func (t *TLB) Len() int { return t.n }
