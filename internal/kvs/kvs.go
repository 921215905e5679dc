// Package kvs implements an LSM-tree key-value store, the leveldb
// substitute for the paper's cloud-service evaluation (§6.5.2). It has a
// write-ahead memtable, sorted-string-table files with embedded indexes and
// bloom filters, L0->L1 compaction, tombstones, and merged range scans.
//
// The store runs against an abstract file system (the m3fs client on M³v,
// the tmpfs model on Linux) and charges CPU through a compute hook, so the
// same database code drives both sides of Figure 10.
package kvs

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// FileSys is the file-system interface the store runs on.
type FileSys interface {
	// Create opens a file for writing, truncating it.
	Create(name string) (WFile, error)
	// Open opens a file for reading.
	Open(name string) (RFile, error)
	// Unlink removes a file.
	Unlink(name string) error
}

// WFile is a writable file.
type WFile interface {
	Write(p []byte) (int, error)
	Close() error
}

// RFile is a readable file.
type RFile interface {
	ReadAll() ([]byte, error)
	Close() error
}

// Options tunes the store.
type Options struct {
	// MemtableBytes triggers a flush when exceeded.
	MemtableBytes int
	// L0Tables triggers a compaction when exceeded.
	L0Tables int
	// Compute charges CPU cycles (nil = free).
	Compute func(cycles int64)
	// BlockFetch, if set, models uncached block reads during scans: it is
	// called with the number of 4 KiB blocks a scan walked. On Linux each
	// block is a read() system call; on M³v the blocks come through the
	// vDTU's extent access without a context switch — the mechanism behind
	// Figure 10's scan results.
	BlockFetch func(blocks int)
}

// CPU cost model, in core cycles.
const (
	costGetBase      = 500
	costTableProbe   = 180
	costPutBase      = 350
	costScanEntry    = 120
	costFlushEntry   = 90
	costCompactEntry = 110
)

// DB is one database instance.
type DB struct {
	fs   FileSys
	opts Options

	mem      map[string]string // memtable; tombstone = key present with tomb marker
	memBytes int

	l0      []string // newest first
	l1      []string
	nextSeq int

	cache map[string]*table

	// Flushes and Compactions count background work, for tests.
	Flushes, Compactions int64
}

// tombstone marks deleted keys inside tables and the memtable.
const tombstone = "\x00__tomb__"

// table is a parsed SSTable.
type table struct {
	keys   []string
	vals   []string
	filter bloom
}

// Open creates or opens a database in the given file system.
func Open(fs FileSys, opts Options) *DB {
	if opts.MemtableBytes == 0 {
		opts.MemtableBytes = 64 << 10
	}
	if opts.L0Tables == 0 {
		opts.L0Tables = 4
	}
	db := &DB{
		fs:    fs,
		opts:  opts,
		mem:   make(map[string]string),
		cache: make(map[string]*table),
	}
	return db
}

func (db *DB) compute(c int64) {
	if db.opts.Compute != nil {
		db.opts.Compute(c)
	}
}

// Put stores a key/value pair.
func (db *DB) Put(key, value string) error {
	db.compute(costPutBase)
	if old, ok := db.mem[key]; ok {
		db.memBytes -= len(key) + len(old)
	}
	db.mem[key] = value
	db.memBytes += len(key) + len(value)
	if db.memBytes >= db.opts.MemtableBytes {
		return db.flush()
	}
	return nil
}

// Delete removes a key (a tombstone is written).
func (db *DB) Delete(key string) error { return db.Put(key, tombstone) }

// Get returns the value for key, reporting whether it exists.
func (db *DB) Get(key string) (string, bool, error) {
	db.compute(costGetBase)
	if v, ok := db.mem[key]; ok {
		if v == tombstone {
			return "", false, nil
		}
		return v, true, nil
	}
	for _, name := range db.l0 {
		v, ok, err := db.probe(name, key)
		if err != nil {
			return "", false, err
		}
		if ok {
			if v == tombstone {
				return "", false, nil
			}
			return v, true, nil
		}
	}
	for _, name := range db.l1 {
		v, ok, err := db.probe(name, key)
		if err != nil {
			return "", false, err
		}
		if ok {
			if v == tombstone {
				return "", false, nil
			}
			return v, true, nil
		}
	}
	return "", false, nil
}

// probe looks up key in one table, using its bloom filter first.
func (db *DB) probe(name, key string) (string, bool, error) {
	db.compute(costTableProbe)
	t, err := db.load(name)
	if err != nil {
		return "", false, err
	}
	if !t.filter.MayContain(key) {
		return "", false, nil
	}
	i := sort.SearchStrings(t.keys, key)
	if i < len(t.keys) && t.keys[i] == key {
		return t.vals[i], true, nil
	}
	return "", false, nil
}

// Scan returns up to limit key/value pairs with key >= start, merged across
// the memtable and all tables (newest version wins, tombstones filtered).
// The scan walks every key >= start, so its CPU and block-fetch charges
// cover all of them, not only the rows it returns.
func (db *DB) Scan(start string, limit int) ([][2]string, error) {
	// One sorted run per source, newest first: the memtable, then L0 and L1
	// tables. Keys are unique within a run.
	var keys []string
	for k := range db.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	mem := run{keys: keys[sort.SearchStrings(keys, start):]}
	mem.vals = make([]string, len(mem.keys))
	for i, k := range mem.keys {
		mem.vals[i] = db.mem[k]
	}
	runs := []run{mem}
	for _, level := range [][]string{db.l0, db.l1} {
		for _, name := range level {
			t, err := db.load(name)
			if err != nil {
				return nil, err
			}
			i := sort.SearchStrings(t.keys, start)
			runs = append(runs, run{t.keys[i:], t.vals[i:]})
		}
	}
	out := make([][2]string, 0, limit)
	entries, scannedBytes := 0, 0
	for {
		// The smallest head key; on a tie the newest run's version wins.
		win := -1
		for i := range runs {
			if len(runs[i].keys) > 0 && (win < 0 || runs[i].keys[0] < runs[win].keys[0]) {
				win = i
			}
		}
		if win < 0 {
			break
		}
		k, v := runs[win].keys[0], runs[win].vals[0]
		for i := range runs {
			if len(runs[i].keys) > 0 && runs[i].keys[0] == k {
				runs[i].keys, runs[i].vals = runs[i].keys[1:], runs[i].vals[1:]
			}
		}
		entries++
		scannedBytes += len(k) + len(v)
		if len(out) < limit && v != tombstone {
			out = append(out, [2]string{k, v})
		}
	}
	db.compute(int64(entries) * costScanEntry)
	if db.opts.BlockFetch != nil {
		db.opts.BlockFetch(scannedBytes/4096 + 1)
	}
	return out, nil
}

// run is a sorted key/value sequence that Scan merges.
type run struct {
	keys, vals []string
}

// Flush forces the memtable to disk.
func (db *DB) Flush() error {
	if len(db.mem) == 0 {
		return nil
	}
	return db.flush()
}

func (db *DB) flush() error {
	db.Flushes++
	keys := make([]string, 0, len(db.mem))
	for k := range db.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = db.mem[k]
	}
	db.compute(int64(len(keys)) * costFlushEntry)
	name := fmt.Sprintf("/sst-%06d.l0", db.nextSeq)
	db.nextSeq++
	if err := db.writeTable(name, keys, vals); err != nil {
		return err
	}
	db.l0 = append([]string{name}, db.l0...)
	db.mem = make(map[string]string)
	db.memBytes = 0
	if len(db.l0) > db.opts.L0Tables {
		return db.compact()
	}
	return nil
}

// compact merges all L0 tables and the existing L1 into one new L1 table.
func (db *DB) compact() error {
	db.Compactions++
	merged := make(map[string]string)
	// Oldest first so newer versions overwrite.
	sources := append(append([]string{}, db.l1...), reverse(db.l0)...)
	total := 0
	for _, name := range sources {
		t, err := db.load(name)
		if err != nil {
			return err
		}
		for i, k := range t.keys {
			merged[k] = t.vals[i]
		}
		total += len(t.keys)
	}
	db.compute(int64(total) * costCompactEntry)
	all := make([]string, 0, len(merged))
	for k := range merged {
		all = append(all, k)
	}
	sort.Strings(all)
	keys := all[:0]
	vals := make([]string, 0, len(all))
	for _, k := range all {
		if v := merged[k]; v != tombstone { // compaction to the last level drops tombstones
			keys = append(keys, k)
			vals = append(vals, v)
		}
	}
	name := fmt.Sprintf("/sst-%06d.l1", db.nextSeq)
	db.nextSeq++
	if err := db.writeTable(name, keys, vals); err != nil {
		return err
	}
	for _, old := range sources {
		delete(db.cache, old)
		if err := db.fs.Unlink(old); err != nil {
			return err
		}
	}
	db.l0 = nil
	db.l1 = []string{name}
	return nil
}

func reverse(s []string) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// --- SSTable format ----------------------------------------------------------
//
//	[u32 count] [filter: u32 len, bytes]
//	count * { u32 klen, key, u32 vlen, value }

func (db *DB) writeTable(name string, keys, vals []string) error {
	f, err := db.fs.Create(name)
	if err != nil {
		return err
	}
	filter := newBloom(len(keys))
	for _, k := range keys {
		filter.Add(k)
	}
	size := 8 + len(filter)
	for i := range keys {
		size += 8 + len(keys[i]) + len(vals[i])
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(filter)))
	buf = append(buf, filter...)
	for i := range keys {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys[i])))
		buf = append(buf, keys[i]...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vals[i])))
		buf = append(buf, vals[i]...)
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	db.cache[name] = &table{keys: keys, vals: vals, filter: filter}
	return nil
}

// load returns a parsed table, reading it from the file system on a cache
// miss (leveldb's table cache).
func (db *DB) load(name string) (*table, error) {
	if t, ok := db.cache[name]; ok {
		return t, nil
	}
	f, err := db.fs.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	t, err := parseTable(data)
	if err != nil {
		return nil, fmt.Errorf("kvs: table %s: %w", name, err)
	}
	db.cache[name] = t
	return t, nil
}

func parseTable(data []byte) (*table, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("truncated header")
	}
	count := binary.LittleEndian.Uint32(data)
	flen := binary.LittleEndian.Uint32(data[4:])
	off := 8
	if off+int(flen) > len(data) {
		return nil, fmt.Errorf("truncated filter")
	}
	t := &table{filter: bloom(append([]byte(nil), data[off:off+int(flen)]...))}
	off += int(flen)
	for i := uint32(0); i < count; i++ {
		k, n, err := readStr(data, off)
		if err != nil {
			return nil, err
		}
		off = n
		v, n, err := readStr(data, off)
		if err != nil {
			return nil, err
		}
		off = n
		t.keys = append(t.keys, k)
		t.vals = append(t.vals, v)
	}
	return t, nil
}

func readStr(data []byte, off int) (string, int, error) {
	if off+4 > len(data) {
		return "", 0, fmt.Errorf("truncated length")
	}
	n := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if off+n > len(data) {
		return "", 0, fmt.Errorf("truncated string")
	}
	return string(data[off : off+n]), off + n, nil
}

// Stats summarizes the store's shape.
func (db *DB) Stats() string {
	return fmt.Sprintf("mem=%d l0=%d l1=%d flushes=%d compactions=%d",
		len(db.mem), len(db.l0), len(db.l1), db.Flushes, db.Compactions)
}

// --- bloom filter -------------------------------------------------------------

// bloom is a fixed 10-bits-per-key bloom filter with 7 hash functions
// (leveldb's default policy).
type bloom []byte

func newBloom(keys int) bloom {
	bits := keys * 10
	if bits < 64 {
		bits = 64
	}
	return make(bloom, (bits+7)/8)
}

func (b bloom) bits() uint32 { return uint32(len(b) * 8) }

// Add inserts a key.
func (b bloom) Add(key string) {
	h := fnv64(key)
	delta := h>>33 | h<<31
	for i := 0; i < 7; i++ {
		bit := uint32(h) % b.bits()
		b[bit/8] |= 1 << (bit % 8)
		h += delta
	}
}

// MayContain reports whether the key may be present.
func (b bloom) MayContain(key string) bool {
	if len(b) == 0 {
		return true
	}
	h := fnv64(key)
	delta := h>>33 | h<<31
	for i := 0; i < 7; i++ {
		bit := uint32(h) % b.bits()
		if b[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MemFS is an in-memory FileSys for tests and standalone use.
type MemFS struct {
	files map[string][]byte
}

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string][]byte)} }

// Create implements FileSys.
func (m *MemFS) Create(name string) (WFile, error) {
	m.files[name] = nil
	return &memW{m: m, name: name}, nil
}

// Open implements FileSys.
func (m *MemFS) Open(name string) (RFile, error) {
	data, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s not found", name)
	}
	return &memR{data: data}, nil
}

// Unlink implements FileSys.
func (m *MemFS) Unlink(name string) error {
	delete(m.files, name)
	return nil
}

// Files lists stored files (tests).
func (m *MemFS) Files() []string {
	var out []string
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type memW struct {
	m    *MemFS
	name string
}

func (w *memW) Write(p []byte) (int, error) {
	w.m.files[w.name] = append(w.m.files[w.name], p...)
	return len(p), nil
}
func (w *memW) Close() error { return nil }

type memR struct{ data []byte }

func (r *memR) ReadAll() ([]byte, error) { return r.data, nil }
func (r *memR) Close() error             { return nil }
