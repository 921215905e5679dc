package bench

import (
	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/linuxos"
	"m3v/internal/netstack"
	"m3v/internal/sim"
)

// Figure 8 parameters (paper §6.3): 50 repetitions of 1-byte packets after
// 5 warmup runs against a directly connected peer machine.
const (
	fig8Reps   = 50
	fig8Warmup = 5
)

// m3vUDPLatency measures the UDP round trip on M³v, with the client either
// co-located with the net service or on its own tile.
func m3vUDPLatency(p Params, c *sim.Canceler, shared bool) sim.Time {
	sys := p.boot(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	netTile := procs[1]
	clientTile := procs[2]
	if shared {
		clientTile = netTile
	}
	dev := sys.NewNIC(netTile)
	dev.Peer = func(frame []byte) []byte { return frame }
	var rtt sim.Time
	sys.SpawnRoot(clientTile, "udpbench", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		ref, err := netstack.Spawn(a, tiles[netTile], netTile, dev)
		if err != nil {
			panic(err)
		}
		sys.WireNICIrq(dev, netTile, ref.ID)
		sock, err := netstack.Dial(a, ref.ID)
		if err != nil {
			panic(err)
		}
		for i := 0; i < fig8Warmup; i++ {
			if err := sock.Send([]byte{0}); err != nil {
				panic(err)
			}
			sock.Recv()
		}
		start := a.Now()
		for i := 0; i < fig8Reps; i++ {
			if err := sock.Send([]byte{1}); err != nil {
				panic(err)
			}
			sock.Recv()
		}
		rtt = (a.Now() - start) / fig8Reps
	})
	sys.Run(120 * sim.Second)
	return rtt
}

// linuxUDPLatency measures the Linux reference.
func linuxUDPLatency(c *sim.Canceler) sim.Time {
	eng := linuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	m.PeerEcho = func(b []byte) []byte { return b }
	var rtt sim.Time
	m.Spawn("udpbench", func(p *linuxos.Proc) {
		for i := 0; i < fig8Warmup; i++ {
			p.Sendto([]byte{0})
			p.Recvfrom()
		}
		start := p.Now()
		for i := 0; i < fig8Reps; i++ {
			p.Sendto([]byte{1})
			p.Recvfrom()
		}
		rtt = (p.Now() - start) / fig8Reps
	})
	eng.RunUntil(120 * sim.Second)
	return rtt
}

// fig8 reproduces Figure 8: UDP latency between the platform and a directly
// connected machine, 1-byte packets.
func fig8(p Params, c *sim.Canceler) (*Result, error) {
	r := newResult("fig8")
	pts := runPoints(3, func(i int) sim.Time {
		switch i {
		case 0:
			return linuxUDPLatency(c)
		case 1:
			return m3vUDPLatency(p, c, true)
		default:
			return m3vUDPLatency(p, c, false)
		}
	})
	linux, shared, isolated := pts[0], pts[1], pts[2]
	r.Add("Linux", linux.Micros(), "us", 400)
	r.Add("M3v (shared)", shared.Micros(), "us", 600)
	r.Add("M3v (isolated)", isolated.Micros(), "us", 330)
	r.Note("shape: shared competitive with Linux; isolated faster but uses an extra tile")
	return finish(r, c)
}
