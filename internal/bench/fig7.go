package bench

import (
	"io"

	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/linuxos"
	"m3v/internal/m3fs"
	"m3v/internal/sim"
	"m3v/internal/vm"
)

// Figure 7 parameters (paper §6.3): 2 MiB files, 4 KiB buffers, extents
// limited to 64 blocks, 10 runs after 4 warmup runs.
const (
	fig7FileBytes = 2 << 20
	fig7BufBytes  = 4096
	fig7Warmup    = 2
	fig7Runs      = 4
)

// fsThroughput measures m3fs read and write throughput in MiB/s. shared
// places the benchmark, the file system, and the pager on one BOOM core;
// isolated gives each its own.
func fsThroughput(p Params, c *sim.Canceler, shared bool) (readMiBs, writeMiBs float64) {
	sys := p.boot(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	benchTile := procs[1]
	fsTile, pagerTile := procs[2], procs[3]
	if shared {
		fsTile, pagerTile = benchTile, benchTile
	}
	var readT, writeT sim.Time
	sys.SpawnRoot(benchTile, "fsbench", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		if _, err := vm.Spawn(a, tiles[pagerTile], pagerTile, 4<<20); err != nil {
			panic(err)
		}
		if _, err := m3fs.Spawn(a, tiles[fsTile], fsTile, 64<<20); err != nil {
			panic(err)
		}
		c, err := m3fs.NewClient(a)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, fig7BufBytes)
		writeFile := func(path string) sim.Time {
			f, err := c.Open(path, m3fs.FlagW|m3fs.FlagCreate|m3fs.FlagTrunc)
			if err != nil {
				panic(err)
			}
			start := a.Now()
			for off := 0; off < fig7FileBytes; off += fig7BufBytes {
				if _, err := f.Write(buf); err != nil {
					panic(err)
				}
			}
			if err := f.Close(); err != nil {
				panic(err)
			}
			return a.Now() - start
		}
		readFile := func(path string) sim.Time {
			f, err := c.Open(path, m3fs.FlagR)
			if err != nil {
				panic(err)
			}
			start := a.Now()
			for {
				if _, err := f.Read(buf); err == io.EOF {
					break
				} else if err != nil {
					panic(err)
				}
			}
			_ = f.Close()
			return a.Now() - start
		}
		for i := 0; i < fig7Warmup; i++ {
			writeFile("/warm")
			readFile("/warm")
		}
		for i := 0; i < fig7Runs; i++ {
			writeT += writeFile("/bench")
			readT += readFile("/bench")
		}
	})
	sys.Run(600 * sim.Second)
	total := float64(fig7Runs) * float64(fig7FileBytes) / (1 << 20)
	return total / readT.Seconds(), total / writeT.Seconds()
}

// linuxFSThroughput measures the tmpfs reference.
func linuxFSThroughput(c *sim.Canceler) (readMiBs, writeMiBs float64) {
	eng := linuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	var readT, writeT sim.Time
	m.Spawn("fsbench", func(p *linuxos.Proc) {
		buf := make([]byte, fig7BufBytes)
		writeFile := func(path string) sim.Time {
			fd := p.Create(path)
			start := p.Now()
			for off := 0; off < fig7FileBytes; off += fig7BufBytes {
				p.Write(fd, buf)
			}
			p.Close(fd)
			return p.Now() - start
		}
		readFile := func(path string) sim.Time {
			fd := p.Open(path)
			start := p.Now()
			for {
				if _, err := p.Read(fd, buf); err == io.EOF {
					break
				}
			}
			p.Close(fd)
			return p.Now() - start
		}
		for i := 0; i < fig7Warmup; i++ {
			writeFile("/warm")
			readFile("/warm")
		}
		for i := 0; i < fig7Runs; i++ {
			writeT += writeFile("/bench")
			readT += readFile("/bench")
		}
	})
	eng.RunUntil(600 * sim.Second)
	total := float64(fig7Runs) * float64(fig7FileBytes) / (1 << 20)
	return total / readT.Seconds(), total / writeT.Seconds()
}

// Fig7 reproduces Figure 7: file read/write throughput of m3fs (with and
// without tile sharing) against Linux tmpfs. Paper values are approximate
// bar heights (MiB/s at 80 MHz). The three configurations run as independent
// sweep points.
func Fig7() *Result { return must(fig7(Params{}, nil)) }

func fig7(p Params, c *sim.Canceler) (*Result, error) {
	r := &Result{ID: "fig7", Title: "File read/write throughput (MiB/s)"}
	type rw struct{ r, w float64 }
	pts := runPoints(3, func(i int) rw {
		switch i {
		case 0:
			rr, ww := linuxFSThroughput(c)
			return rw{rr, ww}
		case 1:
			rr, ww := fsThroughput(p, c, true)
			return rw{rr, ww}
		default:
			rr, ww := fsThroughput(p, c, false)
			return rw{rr, ww}
		}
	})
	lr, lw := pts[0].r, pts[0].w
	sr, sw := pts[1].r, pts[1].w
	ir, iw := pts[2].r, pts[2].w
	r.Add("Linux write", lw, "MiB/s", 55)
	r.Add("Linux read", lr, "MiB/s", 150)
	r.Add("M3v write (shared)", sw, "MiB/s", 60)
	r.Add("M3v write (isolated)", iw, "MiB/s", 95)
	r.Add("M3v read (shared)", sr, "MiB/s", 190)
	r.Add("M3v read (isolated)", ir, "MiB/s", 230)
	r.Note("shape: M3v reads beat Linux (direct extent access); writes are much slower than reads everywhere; sharing costs some throughput")
	return finish(r, c)
}
