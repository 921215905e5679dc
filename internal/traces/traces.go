// Package traces provides the system-call traces of the paper's M³x
// comparison (§6.4 / Figure 9): "find" searching 24 directories with 40
// files each, and "SQLite" performing 32 database inserts and selects. The
// traces were recorded on Linux in the original work; here they are
// synthesized with the same structure and replayed by a traceplayer against
// a file-system interface.
package traces

import "fmt"

// OpKind is one trace operation.
type OpKind uint8

// Trace operation kinds.
const (
	OpOpen OpKind = iota
	OpCreate
	OpRead
	OpWrite
	OpClose
	OpStat
	OpReadDir
	OpUnlink
	OpMkdir
	OpCompute // user computation between system calls
)

// Op is one trace entry.
type Op struct {
	Kind   OpKind
	Path   string
	Size   int   // read/write size
	Cycles int64 // compute gap
}

// Trace is a replayable operation sequence with a setup phase that builds
// the file tree it operates on.
type Trace struct {
	Name  string
	Setup []Op
	Run   []Op
}

// Find builds the find(1) trace: walking 24 directories with 40 files each
// (paper §6.4), stat-ing every entry.
func Find() *Trace {
	t := &Trace{Name: "find"}
	const dirs, files = 24, 40
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/d%02d", d)
		t.Setup = append(t.Setup, Op{Kind: OpMkdir, Path: dir})
		for f := 0; f < files; f++ {
			path := fmt.Sprintf("%s/f%02d", dir, f)
			t.Setup = append(t.Setup,
				Op{Kind: OpCreate, Path: path},
				Op{Kind: OpWrite, Path: path, Size: 64},
				Op{Kind: OpClose, Path: path},
			)
		}
	}
	// The actual find run: readdir each directory, stat each entry, with
	// small compute gaps for the pattern matching.
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/d%02d", d)
		t.Run = append(t.Run, Op{Kind: OpReadDir, Path: dir})
		for f := 0; f < files; f++ {
			t.Run = append(t.Run,
				Op{Kind: OpStat, Path: fmt.Sprintf("%s/f%02d", dir, f)},
				// find's per-entry user work (pattern matching, path
				// assembly, libc): calibrated against the paper's
				// absolute runs/s at 3 GHz.
				Op{Kind: OpCompute, Cycles: 25000},
			)
		}
	}
	return t
}

// SQLite builds the SQLite trace: 32 inserts and 32 selects against a
// database file with rollback journalling (paper §6.4), following SQLite's
// characteristic open/read/write/journal pattern.
func SQLite() *Trace {
	t := &Trace{Name: "sqlite"}
	const pageSize = 4096
	db := "/test.db"
	journal := "/test.db-journal"
	// Setup: create the database with a few pages.
	t.Setup = append(t.Setup, Op{Kind: OpCreate, Path: db})
	for i := 0; i < 4; i++ {
		t.Setup = append(t.Setup, Op{Kind: OpWrite, Path: db, Size: pageSize})
	}
	t.Setup = append(t.Setup, Op{Kind: OpClose, Path: db})

	for i := 0; i < 32; i++ {
		// INSERT: read the page, journal the old content, write the new
		// page, delete the journal (commit).
		t.Run = append(t.Run,
			Op{Kind: OpOpen, Path: db},
			Op{Kind: OpRead, Path: db, Size: pageSize},
			Op{Kind: OpCompute, Cycles: 350000}, // B-tree update + SQL parsing/planning
			Op{Kind: OpClose, Path: db},
			Op{Kind: OpCreate, Path: journal},
			Op{Kind: OpWrite, Path: journal, Size: pageSize},
			Op{Kind: OpClose, Path: journal},
			Op{Kind: OpOpen, Path: db},
			Op{Kind: OpWrite, Path: db, Size: pageSize},
			Op{Kind: OpClose, Path: db},
			Op{Kind: OpUnlink, Path: journal},
		)
		// SELECT: open, read two pages, compute.
		t.Run = append(t.Run,
			Op{Kind: OpOpen, Path: db},
			Op{Kind: OpRead, Path: db, Size: pageSize},
			Op{Kind: OpRead, Path: db, Size: pageSize},
			Op{Kind: OpCompute, Cycles: 250000}, // query execution
			Op{Kind: OpClose, Path: db},
		)
	}
	return t
}

// Target is the file-system interface the traceplayer replays against; the
// m3fs client and the Linux model both adapt to it.
type Target interface {
	Open(path string) error
	Create(path string) error
	Read(size int) error // applies to the most recently opened file
	Write(size int) error
	Close() error
	Stat(path string) error
	ReadDir(path string) error
	Unlink(path string) error
	Mkdir(path string) error
	Compute(cycles int64)
}

// Replay runs the ops against the target, returning the first error.
func Replay(ops []Op, tgt Target) error {
	for _, op := range ops {
		var err error
		switch op.Kind {
		case OpOpen:
			err = tgt.Open(op.Path)
		case OpCreate:
			err = tgt.Create(op.Path)
		case OpRead:
			err = tgt.Read(op.Size)
		case OpWrite:
			err = tgt.Write(op.Size)
		case OpClose:
			err = tgt.Close()
		case OpStat:
			err = tgt.Stat(op.Path)
		case OpReadDir:
			err = tgt.ReadDir(op.Path)
		case OpUnlink:
			err = tgt.Unlink(op.Path)
		case OpMkdir:
			err = tgt.Mkdir(op.Path)
		case OpCompute:
			tgt.Compute(op.Cycles)
		}
		if err != nil {
			return fmt.Errorf("traces: %s %s: %w", op.Kind, op.Path, err)
		}
	}
	return nil
}

// opNames are the OpKind names, in constant order.
var opNames = [...]string{"open", "create", "read", "write", "close", "stat", "readdir", "unlink", "mkdir", "compute"}

// String returns the operation's name, "?" for an unknown kind.
func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return "?"
}

// Stats summarizes a trace for reports.
func (t *Trace) Stats() (syscalls int, computeCycles int64) {
	for _, op := range t.Run {
		if op.Kind == OpCompute {
			computeCycles += op.Cycles
		} else {
			syscalls++
		}
	}
	return
}
