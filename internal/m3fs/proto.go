// Package m3fs implements the extent-based in-memory file system of M³v and
// its client library (paper §6.3). The defining property — and the cause of
// Figure 7's shape — is that a single request to the server grants the
// client *direct vDTU access to an entire extent*: the server derives a
// memory capability for the extent, delegates it to the client, and the
// client moves data with plain DTU reads/writes, never involving the file
// system again until the extent is exhausted.
package m3fs

import "m3v/internal/proto"

// ServiceName is the service name the server registers.
const ServiceName = "m3fs"

// Protocol opcodes (local to the m3fs request gate).
const (
	opInit proto.Op = iota + 1
	opOpen
	opStat
	opNextIn
	opNextOut
	opCommit
	opClose
	opMkdir
	opReadDir
	opUnlink
	opSeek
)

// Open flags.
const (
	FlagR      = 1 << iota // read
	FlagW                  // write
	FlagCreate             // create if absent
	FlagTrunc              // truncate to zero length
)

// BlockBytes is the file system block size.
const BlockBytes = 4096

// The m3fs timing model. Server-side work per operation, in server-core
// cycles.
const (
	openCycles      int64 = 2500
	statCycles      int64 = 1200
	nextInCycles    int64 = 1600
	nextOutCycles   int64 = 1800 // base; plus zeroBlockCycles per allocated block
	zeroBlockCycles int64 = 1800
	commitCycles    int64 = 800
	closeCycles     int64 = 600
	mkdirCycles     int64 = 2000
	readDirCycles   int64 = 1500 // base; plus dirEntryCycles per entry
	dirEntryCycles  int64 = 60
	unlinkCycles    int64 = 2000
)

// Client-side costs (cycles): per-call library overhead and per-byte buffer
// copy, the dominant cost of read/write loops on the 80 MHz cores.
const (
	clientCallCycles  int64 = 250
	copyBytesPerCycle int64 = 8
)
