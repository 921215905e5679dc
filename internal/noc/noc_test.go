package noc

import (
	"testing"
	"testing/quick"

	"m3v/internal/sim"
	"m3v/internal/trace"
)

func TestStarMeshHops(t *testing.T) {
	topo := StarMesh{NumTiles: 12}
	cases := []struct {
		a, b TileID
		want int
	}{
		{0, 0, 1},  // loopback
		{0, 4, 2},  // same router (0 and 4 both map to router 0)
		{0, 1, 3},  // adjacent routers
		{0, 3, 4},  // diagonal routers
		{1, 2, 4},  // diagonal
		{5, 9, 2},  // both on router 1
		{2, 6, 2},  // both on router 2
		{0, 11, 4}, // router 0 -> router 3 diagonal
	}
	for _, c := range cases {
		if got := topo.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestStarMeshHopsSymmetricProperty(t *testing.T) {
	topo := StarMesh{NumTiles: 64}
	f := func(a, b uint8) bool {
		x, y := TileID(a%64), TileID(b%64)
		h := topo.Hops(x, y)
		if h != topo.Hops(y, x) {
			return false
		}
		if x == y {
			return h == 1
		}
		return h >= 2 && h <= 4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeliveryLatency(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, StarMesh{NumTiles: 12}, DefaultConfig())
	var deliveredAt sim.Time
	n.Attach(1, HandlerFunc(func(pkt *Packet) bool {
		deliveredAt = eng.Now()
		return true
	}))
	// 0 -> 1: 3 hops = 45ns, 160 bytes at 1.6GB/s = 100ns => 145ns.
	n.Send(&Packet{Src: 0, Dst: 1, Size: 160})
	eng.Run()
	if want := 145 * sim.Nanosecond; deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
	if n.Delivered() != 1 {
		t.Errorf("delivered count = %d, want 1", n.Delivered())
	}
}

func TestLoopbackDelivery(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, StarMesh{NumTiles: 12}, DefaultConfig())
	got := false
	n.Attach(3, HandlerFunc(func(pkt *Packet) bool {
		got = true
		return true
	}))
	n.Send(&Packet{Src: 3, Dst: 3, Size: 16})
	eng.Run()
	if !got {
		t.Error("loopback packet not delivered")
	}
}

func TestNackRetry(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	n := New(eng, StarMesh{NumTiles: 12}, cfg)
	rejections := 2
	attempts := 0
	n.Attach(2, HandlerFunc(func(pkt *Packet) bool {
		attempts++
		if rejections > 0 {
			rejections--
			return false
		}
		return true
	}))
	n.Send(&Packet{Src: 0, Dst: 2, Size: 64})
	eng.Run()
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if n.Nacked() != 2 || n.Delivered() != 1 {
		t.Errorf("nacked=%d delivered=%d, want 2/1", n.Nacked(), n.Delivered())
	}
}

func TestDropAfterMaxRetries(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	n := New(eng, StarMesh{NumTiles: 12}, cfg)
	attempts := 0
	n.Attach(2, HandlerFunc(func(pkt *Packet) bool {
		attempts++
		return false
	}))
	n.Send(&Packet{Src: 0, Dst: 2, Size: 64})
	eng.Run()
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

func TestRouterContentionSerializes(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, StarMesh{NumTiles: 12}, DefaultConfig())
	var arrivals []sim.Time
	n.Attach(1, HandlerFunc(func(pkt *Packet) bool {
		arrivals = append(arrivals, eng.Now())
		return true
	}))
	// Two packets injected at t=0 from the same source share the ingress
	// router; the second must queue behind the first's serialization time.
	n.Send(&Packet{Src: 0, Dst: 1, Size: 1600}) // 1us serialization
	n.Send(&Packet{Src: 0, Dst: 1, Size: 1600})
	eng.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap != sim.Microsecond {
		t.Errorf("inter-arrival gap = %v, want 1us", gap)
	}
}

func TestMissingHandlerPanics(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, StarMesh{NumTiles: 12}, DefaultConfig())
	n.Send(&Packet{Src: 0, Dst: 7, Size: 8})
	defer func() {
		if recover() == nil {
			t.Error("delivery to unattached tile did not panic")
		}
	}()
	eng.Run()
}

// TestNoCPacketStampedAtTransmit pins the stamp fix: a packet's noc.xfer
// span begins at the attempt's transmit (enqueue) time and ends at the
// dequeue (delivery) edge. An earlier version stamped the packet at the
// dequeue cycle with zero duration, which made router-queueing time
// invisible and mis-attributed the enqueue edge. The packets carry no flow,
// so this also pins that an enabled recorder keeps flow-0 spans.
func TestNoCPacketStampedAtTransmit(t *testing.T) {
	eng := sim.NewEngine()
	rec := eng.Tracer()
	rec.Enable()
	n := New(eng, StarMesh{NumTiles: 12}, DefaultConfig())
	n.Attach(1, HandlerFunc(func(pkt *Packet) bool { return true }))
	// Tiles 0 and 4 share ingress router 0: both transmit at t=0, the
	// second queues behind the first's serialization time (100ns for 160
	// bytes at 1.6GB/s). Both are 3 hops from tile 1 (45ns), so the first
	// delivers at 145ns and the second at 245ns.
	n.Send(&Packet{Src: 0, Dst: 1, Size: 160})
	n.Send(&Packet{Src: 4, Dst: 1, Size: 160})
	eng.Run()

	var pkts []trace.Span
	for _, s := range rec.Spans() {
		if s.Name == trace.SpanNoCXfer {
			pkts = append(pkts, s)
		}
	}
	if len(pkts) != 2 {
		t.Fatalf("got %d noc.xfer spans, want 2", len(pkts))
	}
	ns := int64(sim.Nanosecond)
	for i, want := range []struct{ at, end int64 }{{0, 145 * ns}, {0, 245 * ns}} {
		if pkts[i].At != want.at {
			t.Errorf("packet %d stamped at %d, want transmit time %d (not the dequeue edge)",
				i, pkts[i].At, want.at)
		}
		if pkts[i].End != want.end {
			t.Errorf("packet %d ends at %d, want the delivery edge %d",
				i, pkts[i].End, want.end)
		}
		if pkts[i].Flow != 0 || pkts[i].Tile != 1 || pkts[i].Arg1 != 1 {
			t.Errorf("packet %d = %+v, want flow 0, tile 1, delivered", i, pkts[i])
		}
	}
}

// TestFastPathTablesMatchDynamic pins the precomputed latency/router tables
// and the multiply-based serialization against StarMesh arithmetic done
// here, over every (src, dst) pair and a spread of sizes: 15 ns per hop plus
// the size at 1.6 GB/s.
func TestFastPathTablesMatchDynamic(t *testing.T) {
	eng := sim.NewEngine()
	topo := StarMesh{NumTiles: 12}
	n := New(eng, topo, DefaultConfig())
	for src := 0; src < topo.NumTiles; src++ {
		if got, want := n.routerOf(TileID(src)), topo.RouterOf(TileID(src)); got != want {
			t.Errorf("routerOf(%d) = %d, want %d", src, got, want)
		}
		for dst := 0; dst < topo.NumTiles; dst++ {
			for _, size := range []int{0, 1, 64, 113, 4096} {
				got := n.Latency(TileID(src), TileID(dst), size)
				want := sim.Time(topo.Hops(TileID(src), TileID(dst)))*15*sim.Nanosecond +
					sim.Time(int64(size)*int64(sim.Second)/1_600_000_000)
				if got != want {
					t.Errorf("Latency(%d,%d,%d) = %v, want %v", src, dst, size, got, want)
				}
			}
		}
	}
}
