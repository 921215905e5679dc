package m3fs

import (
	"fmt"
	"sort"
	"strings"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/proto"
)

// extent is a contiguous run of blocks on the "disk" (the server's DRAM
// region).
type extent struct {
	off    uint64 // byte offset into the disk region
	blocks int
}

func (e extent) bytes() uint64 { return uint64(e.blocks) * BlockBytes }

// inode is one file or directory.
type inode struct {
	ino      uint32
	dir      bool
	size     uint64
	extents  []extent
	children map[string]*inode // directories only
}

// openFile is one open file descriptor of a session.
type openFile struct {
	node  *inode
	flags uint8
	// rdPos is the sequential read cursor (byte offset).
	rdPos uint64
	// wrExt is the currently handed-out write extent (index into
	// node.extents), -1 if none.
	wrExt int
}

// session is the per-client session state.
type session struct {
	client uint32
	files  map[uint32]*openFile
	nextFd uint32
}

// Config parameterizes the server.
type Config struct {
	// Service is the registered service name (default ServiceName).
	// Figure 9 runs one file-system instance per tile, each under its own
	// name.
	Service string
	// DiskBytes is the size of the backing DRAM region.
	DiskBytes uint64
	// MaxExtentBlocks caps extent size (paper §6.3: limited to 64 blocks).
	MaxExtentBlocks int
	// Ready is set once the service is registered.
	Ready *bool
}

// server is the running file-system state.
type server struct {
	a       *activity.Activity
	cfg     Config
	diskSel cap.Sel
	alloc   *mem.Allocator
	root    *inode
	inodes  map[uint32]*inode
	nextIno uint32
	sess    map[uint64]*session

	// w builds the replies.
	w proto.Writer
}

// Program returns the m3fs server program.
func Program(cfg Config) activity.Program {
	if cfg.DiskBytes == 0 {
		cfg.DiskBytes = 64 << 20
	}
	if cfg.MaxExtentBlocks == 0 {
		cfg.MaxExtentBlocks = 64
	}
	if cfg.Service == "" {
		cfg.Service = ServiceName
	}
	return func(a *activity.Activity) {
		s := &server{
			a:       a,
			cfg:     cfg,
			alloc:   mem.NewAllocator(cfg.DiskBytes),
			inodes:  make(map[uint32]*inode),
			nextIno: 2,
			sess:    make(map[uint64]*session),
		}
		s.root = &inode{ino: 1, dir: true, children: make(map[string]*inode)}
		s.inodes[1] = s.root

		var err error
		s.diskSel, err = a.SysCreateMGate(cfg.DiskBytes, dtu.PermRW)
		if err != nil {
			panic(fmt.Sprintf("m3fs: disk: %v", err))
		}
		rgSel, err := a.SysCreateRGate(16, 256)
		if err != nil {
			panic(fmt.Sprintf("m3fs: rgate: %v", err))
		}
		rgEp, err := a.SysActivate(rgSel)
		if err != nil {
			panic(fmt.Sprintf("m3fs: activate: %v", err))
		}
		if err := a.SysCreateSrv(cfg.Service, rgSel); err != nil {
			panic(fmt.Sprintf("m3fs: register: %v", err))
		}
		if cfg.Ready != nil {
			*cfg.Ready = true
		}
		a.Serve(rgEp, func(msg *dtu.Message) ([]byte, bool) {
			return s.handle(msg), false
		})
	}
}

// lookup resolves a path to an inode, optionally creating the final file.
func (s *server) lookup(path string, create bool) (*inode, error) {
	node := s.root
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) == 1 && parts[0] == "" {
		return node, nil
	}
	for i, part := range parts {
		if !node.dir {
			return nil, fmt.Errorf("not a directory")
		}
		child, ok := node.children[part]
		if !ok {
			if create && i == len(parts)-1 {
				child = &inode{ino: s.nextIno}
				s.nextIno++
				s.inodes[child.ino] = child
				node.children[part] = child
			} else {
				return nil, fmt.Errorf("not found")
			}
		}
		node = child
	}
	return node, nil
}

// truncate frees all extents of a file.
func (s *server) truncate(n *inode) {
	for _, e := range n.extents {
		s.alloc.Free(e.off, e.bytes())
	}
	n.extents = nil
	n.size = 0
}

func (s *server) session(label uint64, client uint32) *session {
	ss := s.sess[label]
	if ss == nil {
		ss = &session{client: client, files: make(map[uint32]*openFile), nextFd: 1}
		s.sess[label] = ss
	}
	return ss
}

// delegateExtent derives a window of the disk and delegates it to the
// client, returning the client-side selector.
func (s *server) delegateExtent(client uint32, off, size uint64, perm dtu.Perm) (cap.Sel, error) {
	der, err := s.a.SysDeriveMGate(s.diskSel, off, size, perm)
	if err != nil {
		return 0, err
	}
	return s.a.SysDelegate(client, der)
}

// handle processes one request message.
func (s *server) handle(msg *dtu.Message) []byte {
	op, r, err := proto.ParseOp(msg.Data)
	if err != nil {
		return s.w.Resp(proto.EInvalid)
	}
	a := s.a
	if op == opInit {
		client := r.U32()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		s.session(msg.Label, client)
		return s.w.Resp(proto.EOK)
	}
	ss := s.sess[msg.Label]
	if ss == nil {
		return s.w.Resp(proto.EInvalid)
	}
	switch op {
	case opOpen:
		path := r.Str()
		flags := r.U8()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(openCycles)
		node, err := s.lookup(path, flags&FlagCreate != 0)
		if err != nil {
			return s.w.Resp(proto.ENotFound)
		}
		if node.dir {
			return s.w.Resp(proto.EInvalid)
		}
		if flags&FlagTrunc != 0 {
			s.truncate(node)
		}
		fd := ss.nextFd
		ss.nextFd++
		ss.files[fd] = &openFile{node: node, flags: flags, wrExt: -1}
		return s.w.Resp(proto.EOK, uint64(fd))

	case opStat:
		path := r.Str()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(statCycles)
		node, err := s.lookup(path, false)
		if err != nil {
			return s.w.Resp(proto.ENotFound)
		}
		isDir := uint64(0)
		if node.dir {
			isDir = 1
		}
		return s.w.Resp(proto.EOK, node.size, isDir)

	case opNextIn:
		fd := uint32(r.U32())
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		f := ss.files[fd]
		if f == nil || f.flags&FlagR == 0 {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(nextInCycles)
		if f.rdPos >= f.node.size {
			return s.w.Resp(proto.EOK, 0, 0, 0) // EOF
		}
		// Find the extent containing rdPos.
		var base uint64
		for _, e := range f.node.extents {
			eb := e.bytes()
			if f.rdPos < base+eb {
				skip := f.rdPos - base
				avail := eb - skip
				if base+eb > f.node.size {
					avail = f.node.size - base - skip
				}
				sel, err := s.delegateExtent(ss.client, e.off, eb, dtu.PermR)
				if err != nil {
					return s.w.Resp(proto.ENoSpace)
				}
				f.rdPos += avail
				return s.w.Resp(proto.EOK, uint64(sel), avail, skip)
			}
			base += eb
		}
		return s.w.Resp(proto.EOK, 0, 0, 0)

	case opNextOut:
		fd := uint32(r.U32())
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		f := ss.files[fd]
		if f == nil || f.flags&FlagW == 0 {
			return s.w.Resp(proto.EInvalid)
		}
		blocks := s.cfg.MaxExtentBlocks
		// Allocation, clearing, and appending is what makes writes slower
		// than reads (paper §6.3).
		a.Compute(nextOutCycles + int64(blocks)*zeroBlockCycles)
		off, err := s.alloc.Alloc(uint64(blocks)*BlockBytes, BlockBytes)
		if err != nil {
			return s.w.Resp(proto.ENoSpace)
		}
		f.node.extents = append(f.node.extents, extent{off: off, blocks: blocks})
		f.wrExt = len(f.node.extents) - 1
		sel, err := s.delegateExtent(ss.client, off, uint64(blocks)*BlockBytes, dtu.PermW)
		if err != nil {
			return s.w.Resp(proto.ENoSpace)
		}
		return s.w.Resp(proto.EOK, uint64(sel), uint64(blocks)*BlockBytes)

	case opCommit:
		fd := uint32(r.U32())
		used := r.U64()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		f := ss.files[fd]
		if f == nil || f.wrExt < 0 {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(commitCycles)
		e := &f.node.extents[f.wrExt]
		usedBlocks := int((used + BlockBytes - 1) / BlockBytes)
		if usedBlocks < e.blocks {
			// Return the unused tail of the extent.
			tail := uint64(e.blocks-usedBlocks) * BlockBytes
			s.alloc.Free(e.off+uint64(usedBlocks)*BlockBytes, tail)
			e.blocks = usedBlocks
		}
		f.node.size += used
		f.wrExt = -1
		return s.w.Resp(proto.EOK)

	case opSeek:
		fd := uint32(r.U32())
		pos := r.U64()
		f := ss.files[fd]
		if f == nil || r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		f.rdPos = pos
		return s.w.Resp(proto.EOK)

	case opClose:
		fd := uint32(r.U32())
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(closeCycles)
		delete(ss.files, fd)
		return s.w.Resp(proto.EOK)

	case opMkdir:
		path := r.Str()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(mkdirCycles)
		parent, name := splitPath(path)
		pn, err := s.lookup(parent, false)
		if err != nil || !pn.dir {
			return s.w.Resp(proto.ENotFound)
		}
		if _, dup := pn.children[name]; dup {
			return s.w.Resp(proto.EExists)
		}
		d := &inode{ino: s.nextIno, dir: true, children: make(map[string]*inode)}
		s.nextIno++
		s.inodes[d.ino] = d
		pn.children[name] = d
		return s.w.Resp(proto.EOK)

	case opReadDir:
		path := r.Str()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		node, err := s.lookup(path, false)
		if err != nil || !node.dir {
			return s.w.Resp(proto.ENotFound)
		}
		a.Compute(readDirCycles + int64(len(node.children))*dirEntryCycles)
		names := make([]string, 0, len(node.children))
		for n := range node.children {
			names = append(names, n)
		}
		sort.Strings(names)
		return s.w.RespBytes(proto.EOK, []byte(strings.Join(names, "\x00")))

	case opUnlink:
		path := r.Str()
		if r.Err() != nil {
			return s.w.Resp(proto.EInvalid)
		}
		a.Compute(unlinkCycles)
		parent, name := splitPath(path)
		pn, err := s.lookup(parent, false)
		if err != nil || !pn.dir {
			return s.w.Resp(proto.ENotFound)
		}
		node, ok := pn.children[name]
		if !ok {
			return s.w.Resp(proto.ENotFound)
		}
		if !node.dir {
			s.truncate(node)
		}
		delete(pn.children, name)
		delete(s.inodes, node.ino)
		return s.w.Resp(proto.EOK)

	default:
		return s.w.Resp(proto.EInvalid)
	}
}

func splitPath(path string) (dir, name string) {
	path = strings.Trim(path, "/")
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "/", path
	}
	return "/" + path[:i], path[i+1:]
}

// Spawn starts an m3fs server on the given tile and waits until it is
// registered.
func Spawn(parent *activity.Activity, tileSel cap.Sel, tile noc.TileID, diskBytes uint64) (activity.ChildRef, error) {
	return SpawnNamed(parent, tileSel, tile, ServiceName, diskBytes)
}

// SpawnNamed starts an m3fs server under a custom service name.
func SpawnNamed(parent *activity.Activity, tileSel cap.Sel, tile noc.TileID, service string, diskBytes uint64) (activity.ChildRef, error) {
	ready := false
	ref, err := parent.Spawn(tileSel, tile, service, nil, Program(Config{
		Service:   service,
		DiskBytes: diskBytes,
		Ready:     &ready,
	}))
	if err != nil {
		return activity.ChildRef{}, err
	}
	for !ready {
		parent.Compute(1000)
		parent.Yield()
	}
	return ref, nil
}
