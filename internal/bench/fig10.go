package bench

import (
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/kvs"
	"m3v/internal/linuxos"
	"m3v/internal/m3fs"
	"m3v/internal/netstack"
	"m3v/internal/sim"
	"m3v/internal/vm"
	"m3v/internal/ycsb"
)

// Figure 10 parameters (paper §6.5.2): leveldb-style store on the file
// system, requests and results via UDP, YCSB workloads with 200 records and
// 200 operations, Zipfian distribution. The paper uses 8 runs after 2
// warmup runs; the deterministic simulation uses fewer.
const (
	fig10Records = 200
	fig10Ops     = 200
	fig10Warmup  = 1
	fig10Runs    = 2
)

// blockCacheImage is the zeroed content of the scan block cache file that
// every M³v simulation writes. File.Write only reads it, so the parallel
// sweep's points share this one read-only image.
var blockCacheImage = make([]byte, 256<<10)

// cloudTimes is one configuration's measurement.
type cloudTimes struct {
	total, user, system sim.Time
}

// ycsbRuns is one mix's generated workloads, replayed by every
// configuration: the warmup runs, then the timed runs.
type ycsbRuns struct {
	warmup, timed []*ycsb.Workload
}

// cloudRuns generates the warmup and timed runs of one mix.
func cloudRuns(mix ycsb.Mix) ycsbRuns {
	gen := func(seed int64) *ycsb.Workload {
		return ycsb.Generate(ycsb.Config{Records: fig10Records, Ops: fig10Ops, Seed: seed, Mix: mix})
	}
	var r ycsbRuns
	for i := 0; i < fig10Warmup; i++ {
		r.warmup = append(r.warmup, gen(int64(i)))
	}
	for i := 0; i < fig10Runs; i++ {
		r.timed = append(r.timed, gen(int64(100+i)))
	}
	return r
}

// runYCSB executes one YCSB run against a database.
func runYCSB(db *kvs.DB, w *ycsb.Workload, send func([]byte)) error {
	for _, op := range w.Load {
		if err := db.Put(op.Key, op.Value); err != nil {
			return err
		}
	}
	if err := db.Flush(); err != nil {
		return err
	}
	for _, op := range w.Run {
		var result []byte
		switch op.Kind {
		case ycsb.OpRead:
			v, _, err := db.Get(op.Key)
			if err != nil {
				return err
			}
			result = []byte(fmt.Sprintf("read %s %d", op.Key, len(v)))
		case ycsb.OpInsert, ycsb.OpUpdate:
			if err := db.Put(op.Key, op.Value); err != nil {
				return err
			}
			result = []byte(fmt.Sprintf("put %s", op.Key))
		case ycsb.OpScan:
			rows, err := db.Scan(op.Key, op.Scan)
			if err != nil {
				return err
			}
			result = []byte(fmt.Sprintf("scan %s %d", op.Key, len(rows)))
		}
		send(result)
	}
	return nil
}

// m3vCloud measures one mix's runs on M³v. shared puts the database, the
// file system, the network stack, and the pager on one BOOM core.
func m3vCloud(p Params, c *sim.Canceler, runs ycsbRuns, shared bool) cloudTimes {
	sys := p.boot(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	dbTile := procs[1]
	fsTile, netTile, pagerTile := procs[2], procs[3], procs[4]
	if shared {
		fsTile, netTile, pagerTile = dbTile, dbTile, dbTile
	}
	dev := sys.NewNIC(netTile)
	dev.Peer = func([]byte) []byte { return nil } // result sink

	var out cloudTimes
	var fsRef, netRef activity.ChildRef
	sys.SpawnRoot(dbTile, "clouddb", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		var err error
		if _, err = vm.Spawn(a, tiles[pagerTile], pagerTile, 4<<20); err != nil {
			panic(err)
		}
		if fsRef, err = m3fs.Spawn(a, tiles[fsTile], fsTile, 64<<20); err != nil {
			panic(err)
		}
		if netRef, err = netstack.Spawn(a, tiles[netTile], netTile, dev); err != nil {
			panic(err)
		}
		sys.WireNICIrq(dev, netTile, netRef.ID)
		fsc, err := m3fs.NewClient(a)
		if err != nil {
			panic(err)
		}
		sock, err := netstack.Dial(a, netRef.ID)
		if err != nil {
			panic(err)
		}
		fsys := &m3fsKV{c: fsc}
		send := func(b []byte) {
			if err := sock.Send(b); err != nil {
				panic(err)
			}
		}
		// Scan block reads flow through the vDTU's direct extent access:
		// after the extent is activated, no context switch is needed (the
		// mechanism behind the paper's scan results).
		bw, err := fsc.Open("/blockcache", m3fs.FlagW|m3fs.FlagCreate|m3fs.FlagTrunc)
		if err != nil {
			panic(err)
		}
		if _, err := bw.Write(blockCacheImage); err != nil {
			panic(err)
		}
		if err := bw.Close(); err != nil {
			panic(err)
		}
		blockFile, err := fsc.Open("/blockcache", m3fs.FlagR)
		if err != nil {
			panic(err)
		}
		blockBuf := make([]byte, 4096)
		blockFetch := func(blocks int) {
			for i := 0; i < blocks; i++ {
				if n, _ := blockFile.Read(blockBuf); n == 0 {
					_ = blockFile.Seek(0)
				}
			}
		}
		busyFS := func() sim.Time { return sys.Muxes[fsTile].Act(fsRef.LocalID()).Busy() }
		busyNet := func() sim.Time { return sys.Muxes[netTile].Act(netRef.LocalID()).Busy() }

		oneRun := func(w *ycsb.Workload) (sim.Time, sim.Time) {
			// The database reads the requests ahead of time from a file
			// (paper §6.5.2), then executes them.
			reqFile, err := fsc.Open("/requests", m3fs.FlagR|m3fs.FlagW|m3fs.FlagCreate|m3fs.FlagTrunc)
			if err != nil {
				panic(err)
			}
			reqs := make([]byte, 16*(fig10Records+fig10Ops))
			if _, err := reqFile.Write(reqs); err != nil {
				panic(err)
			}
			_ = reqFile.Close()
			rd, _ := fsc.Open("/requests", m3fs.FlagR)
			if _, err := rd.ReadAll(4096); err != nil {
				panic(err)
			}
			_ = rd.Close()

			db := kvs.Open(fsys, kvs.Options{
				Compute:    func(c int64) { a.Compute(c) },
				BlockFetch: blockFetch,
			})
			t0 := a.Now()
			sys0 := busyFS() + busyNet()
			if err := runYCSB(db, w, send); err != nil {
				panic(err)
			}
			return a.Now() - t0, busyFS() + busyNet() - sys0
		}
		for _, w := range runs.warmup {
			oneRun(w)
		}
		for _, w := range runs.timed {
			total, system := oneRun(w)
			out.total += total
			out.system += system
		}
		out.total /= fig10Runs
		out.system /= fig10Runs
		out.user = out.total - out.system
	})
	sys.Run(3600 * sim.Second)
	return out
}

// linuxCloud measures one mix's runs on the Linux model (file system and
// network stack run in the kernel: their time is system time).
func linuxCloud(c *sim.Canceler, runs ycsbRuns) cloudTimes {
	eng := linuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	m.PeerEcho = nil
	var out cloudTimes
	m.Spawn("clouddb", func(p *linuxos.Proc) {
		// leveldb plus the benchmark have a large working set: every system
		// call costs the application most of its L1 state (paper §6.5.2).
		p.SetSyscallRefill(2500)
		fsys := &linuxKV{p: p}
		send := func(b []byte) { p.Sendto(b) }
		// On Linux every scanned block is a read() system call, each of
		// which evicts the application's cache state (paper §6.5.2).
		bfd := p.Create("/blockcache")
		p.Write(bfd, make([]byte, 64<<10))
		blockBuf := make([]byte, 4096)
		blockFetch := func(blocks int) {
			for i := 0; i < blocks; i++ {
				if n, _ := p.Read(bfd, blockBuf); n == 0 {
					p.Seek(bfd, 0)
				}
			}
		}
		oneRun := func(w *ycsb.Workload) (sim.Time, sim.Time, sim.Time) {
			fd := p.Create("/requests")
			p.Write(fd, make([]byte, 16*(fig10Records+fig10Ops)))
			p.Close(fd)
			rd := p.Open("/requests")
			buf := make([]byte, 4096)
			for {
				if _, err := p.Read(rd, buf); err != nil {
					break
				}
			}
			p.Close(rd)

			db := kvs.Open(fsys, kvs.Options{
				Compute:    func(c int64) { p.Compute(c) },
				BlockFetch: blockFetch,
			})
			u0, s0 := p.Rusage()
			t0 := p.Now()
			if err := runYCSB(db, w, send); err != nil {
				panic(err)
			}
			u1, s1 := p.Rusage()
			return p.Now() - t0, u1 - u0, s1 - s0
		}
		for _, w := range runs.warmup {
			oneRun(w)
		}
		for _, w := range runs.timed {
			total, user, system := oneRun(w)
			out.total += total
			out.user += user
			out.system += system
		}
		out.total /= fig10Runs
		out.user /= fig10Runs
		out.system /= fig10Runs
	})
	eng.RunUntil(3600 * sim.Second)
	return out
}

// Fig10 runs fig10 with the zero Params and panics on a broken
// measurement. It is exported only for the perfbench module's fig10-ycsb
// workload; everything else runs fig10 through the registry.
func Fig10() *Result {
	r, err := fig10(Params{}, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// fig10 reproduces Figure 10: the cloud service under YCSB workloads, M³v
// isolated/shared vs Linux, runtime split into user and system time. Each
// mix is one point of the sweep, fanned out across the worker pool: its
// runs are generated once and replayed by three independent simulations.
func fig10(p Params, c *sim.Canceler) (*Result, error) {
	r := newResult("fig10")
	// Three configurations per mix: M3v isolated, M3v shared, Linux.
	times := runPoints(len(ycsb.Mixes), func(i int) [3]cloudTimes {
		runs := cloudRuns(ycsb.Mixes[i].Mix)
		return [3]cloudTimes{m3vCloud(p, c, runs, false), m3vCloud(p, c, runs, true), linuxCloud(c, runs)}
	})
	for mi, mx := range ycsb.Mixes {
		iso, sh, lx := times[mi][0], times[mi][1], times[mi][2]
		r.Add(fmt.Sprintf("%s M3v isolated total", mx.Name), iso.total.Millis(), "ms", 0)
		r.Add(fmt.Sprintf("%s M3v shared total", mx.Name), sh.total.Millis(), "ms", 0)
		r.Add(fmt.Sprintf("%s Linux total", mx.Name), lx.total.Millis(), "ms", 0)
		r.Add(fmt.Sprintf("%s M3v shared system", mx.Name), sh.system.Millis(), "ms", 0)
		r.Add(fmt.Sprintf("%s Linux system", mx.Name), lx.system.Millis(), "ms", 0)
	}
	r.Note("shape: M3v shared competitive with Linux for read/insert/update; Linux worse for scans (per-syscall cache refills); isolated fastest but not comparable (extra tiles)")
	return finish(r, c)
}
