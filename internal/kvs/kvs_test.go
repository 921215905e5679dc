package kvs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func newTestDB(memtable int) (*DB, *MemFS) {
	fs := NewMemFS()
	return Open(fs, Options{MemtableBytes: memtable, L0Tables: 3}), fs
}

func TestPutGet(t *testing.T) {
	db, _ := newTestDB(0)
	if err := db.Put("k1", "v1"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get("k1")
	if err != nil || !ok || v != "v1" {
		t.Errorf("Get = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := db.Get("absent"); ok {
		t.Error("absent key found")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	db, _ := newTestDB(0)
	db.Put("k", "v1")
	db.Put("k", "v2")
	if v, _, _ := db.Get("k"); v != "v2" {
		t.Errorf("overwrite: got %q", v)
	}
	db.Delete("k")
	if _, ok, _ := db.Get("k"); ok {
		t.Error("deleted key still found")
	}
}

func TestFlushAndReadBack(t *testing.T) {
	db, fs := newTestDB(1 << 10) // tiny memtable to force flushes
	for i := 0; i < 100; i++ {
		db.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i))
	}
	if db.Flushes == 0 {
		t.Fatal("no flush happened")
	}
	if len(fs.Files()) == 0 {
		t.Fatal("no SSTables on the file system")
	}
	// Drop the cache to force real reads through the table format.
	db.cache = make(map[string]*table)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, ok, err := db.Get(k)
		if err != nil || !ok || v != fmt.Sprintf("value-%03d", i) {
			t.Fatalf("Get(%s) = (%q,%v,%v)", k, v, ok, err)
		}
	}
}

func TestCompactionReducesTables(t *testing.T) {
	db, fs := newTestDB(512)
	for i := 0; i < 400; i++ {
		db.Put(fmt.Sprintf("key-%04d", i%50), fmt.Sprintf("v%d", i))
	}
	if db.Compactions == 0 {
		t.Fatal("no compaction happened")
	}
	if len(db.l1) != 1 {
		t.Errorf("l1 tables = %d, want 1", len(db.l1))
	}
	// Old tables were unlinked.
	if n := len(fs.Files()); n > db.opts.L0Tables+1 {
		t.Errorf("files on disk = %d, want <= %d", n, db.opts.L0Tables+1)
	}
	// Latest values survive.
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if _, ok, _ := db.Get(k); !ok {
			t.Errorf("key %s lost after compaction", k)
		}
	}
}

func TestDeleteSurvivesFlush(t *testing.T) {
	db, _ := newTestDB(1 << 20)
	db.Put("k", "v")
	db.Flush()
	db.Delete("k")
	db.Flush()
	if _, ok, _ := db.Get("k"); ok {
		t.Error("tombstone did not shadow the flushed value")
	}
}

func TestScan(t *testing.T) {
	db, _ := newTestDB(512)
	for i := 0; i < 60; i++ {
		db.Put(fmt.Sprintf("user%04d", i), fmt.Sprintf("v%d", i))
	}
	db.Delete("user0030")
	got, err := db.Scan("user0028", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"user0028", "user0029", "user0031", "user0032", "user0033"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v", got)
	}
	for i, kv := range got {
		if kv[0] != want[i] {
			t.Errorf("scan[%d] = %s, want %s", i, kv[0], want[i])
		}
	}
}

// refScan is the map-based merge Scan must match: every key >= start in any
// source, the newest source's version winning, counted once.
func refScan(t *testing.T, db *DB, start string, limit int) (rows [][2]string, entries, bytes int) {
	t.Helper()
	seen := map[string]string{}
	consider := func(k, v string) {
		if _, dup := seen[k]; k >= start && !dup {
			seen[k] = v
		}
	}
	for k, v := range db.mem {
		consider(k, v)
	}
	for _, name := range append(append([]string{}, db.l0...), db.l1...) {
		tb, err := db.load(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range tb.keys {
			consider(k, tb.vals[i])
		}
	}
	keys := make([]string, 0, len(seen))
	for k, v := range seen {
		keys = append(keys, k)
		bytes += len(k) + len(v)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(rows) < limit && seen[k] != tombstone {
			rows = append(rows, [2]string{k, seen[k]})
		}
	}
	return rows, len(keys), bytes
}

// TestScanMatchesReference runs random puts, deletes and scans, so versions
// of a key sit in the memtable, L0 and L1 at once, and checks each scan's
// rows, CPU charge and fetched blocks against refScan.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var cycles int64
	var blocks int
	db := Open(NewMemFS(), Options{
		MemtableBytes: 256,
		L0Tables:      3,
		Compute:       func(c int64) { cycles += c },
		BlockFetch:    func(n int) { blocks += n },
	})
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(200)) }
	for i := 0; i < 3000; i++ {
		switch op := rng.Intn(10); {
		case op < 6:
			db.Put(key(), fmt.Sprintf("v%d", rng.Intn(1<<20)))
		case op < 8:
			db.Delete(key())
		default:
			start, limit := key(), rng.Intn(20)
			want, entries, bytes := refScan(t, db, start, limit)
			c0, b0 := cycles, blocks
			got, err := db.Scan(start, limit)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("op %d: Scan(%q, %d) = %v, want %v", i, start, limit, got, want)
			}
			if c, b := cycles-c0, blocks-b0; c != int64(entries)*costScanEntry || b != bytes/4096+1 {
				t.Fatalf("op %d: Scan(%q) charged %d cycles, %d blocks; want %d, %d",
					i, start, c, b, int64(entries)*costScanEntry, bytes/4096+1)
			}
		}
	}
	if db.Compactions == 0 || len(db.l0) == 0 {
		t.Fatalf("workload left compactions=%d, l0=%d: not every level was exercised", db.Compactions, len(db.l0))
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloom(100)
	for i := 0; i < 100; i++ {
		b.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 100; i++ {
		if !b.MayContain(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.MayContain(fmt.Sprintf("other-%d", i)) {
			fp++
		}
	}
	// 10 bits/key, 7 hashes: ~1% false positives; allow generous slack.
	if fp > 100 {
		t.Errorf("false positives = %d/1000, want < 100", fp)
	}
}

// TestLSMEquivalenceProperty runs random operation sequences against the
// LSM store and a plain map and requires identical visible state.
func TestLSMEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, _ := newTestDB(256) // tiny: constant flushing and compaction
		model := make(map[string]string)
		for op := 0; op < 300; op++ {
			k := fmt.Sprintf("key-%02d", rng.Intn(40))
			switch rng.Intn(4) {
			case 0, 1:
				v := fmt.Sprintf("val-%d", rng.Intn(1000))
				if err := db.Put(k, v); err != nil {
					return false
				}
				model[k] = v
			case 2:
				if err := db.Delete(k); err != nil {
					return false
				}
				delete(model, k)
			case 3:
				v, ok, err := db.Get(k)
				if err != nil {
					return false
				}
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
			}
		}
		// Final full comparison via scan.
		got, err := db.Scan("", 1000)
		if err != nil {
			return false
		}
		if len(got) != len(model) {
			return false
		}
		for _, kv := range got {
			if model[kv[0]] != kv[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestComputeHookCharged(t *testing.T) {
	var cycles int64
	fs := NewMemFS()
	db := Open(fs, Options{Compute: func(c int64) { cycles += c }})
	db.Put("a", "b")
	db.Get("a")
	if cycles == 0 {
		t.Error("compute hook never charged")
	}
}
