package noc

import (
	"testing"

	"m3v/internal/fault"
	"m3v/internal/sim"
)

// fnv1a folds one value into an FNV-1a hash; the fuzz harnesses use it to
// fingerprint delivery orders for the determinism double-run.
func fnv1a(h, v uint64) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// FuzzNoCArbitration checks the NoC's delivery contract against arbitrary
// traffic decoded from the fuzz input — mixed sources, destinations, sizes,
// and injection times on the 4-router star-mesh, with per-tile rejection
// budgets exercising the NACK/retry backpressure and an optional fault
// injector exercising drops, delays, and duplicates:
//
//   - conservation: every packet offered to Send ends up exactly once as
//     delivered or terminally dropped, and every injected ghost duplicate is
//     discarded (no message is ever delivered twice);
//   - with unbounded retries (MaxRetries 0) nothing is ever dropped;
//   - determinism: the same input replayed on a fresh engine produces the
//     identical delivery order and counter values.
//
// Input layout: byte 0 picks the fault rate and seed, byte 1 packs the
// retry limit and per-tile rejection budgets, every further byte is one
// packet (2-bit src, 2-bit dst, 2-bit size class, 2-bit injection time).
func FuzzNoCArbitration(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x04, 0x1b, 0xe4, 0x00})       // no faults, no rejects
	f.Add([]byte{0x05, 0x1b, 0x04, 0x04, 0x04, 0x04})       // faults + budgets, one hot path
	f.Add([]byte{0x03, 0xff, 0x00, 0x55, 0xaa, 0xff, 0x0f}) // bounded retries, all tiles reject
	f.Add([]byte{0x07, 0x40, 0xe4, 0xe4, 0xe4, 0xe4, 0xe4}) // contention on one ingress router

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		run := func() (hash uint64, sends, delivered, dropped, dups, discards int64) {
			eng := sim.NewEngine()
			defer eng.Shutdown()
			cfg := DefaultConfig()
			var header0, header1 byte
			if len(data) > 0 {
				header0 = data[0]
			}
			if len(data) > 1 {
				header1 = data[1]
			}
			// Bits 0-2 of the retry header select bounded retry budgets; 0
			// keeps the default unbounded behaviour.
			cfg.MaxRetries = int(header1 & 0x03)
			net := New(eng, StarMesh{NumTiles: 4}, cfg)

			var inj *fault.Injector
			if rate := float64(header0&0x07) / 40; rate > 0 {
				inj = fault.New(eng, fault.Config{Seed: uint64(header0), Rate: rate})
				net.SetInjector(inj)
			}

			// Per-tile rejection budgets: tile i NACKs its first budget[i]
			// delivery attempts, then accepts everything.
			var budgets [4]int
			for i := range budgets {
				budgets[i] = int(header1>>uint(2+i)) & 0x03
			}
			for i := 0; i < 4; i++ {
				tile := TileID(i)
				net.Attach(tile, HandlerFunc(func(pkt *Packet) bool {
					if budgets[tile] > 0 {
						budgets[tile]--
						return false
					}
					hash = fnv1a(hash, uint64(pkt.Src)<<32|uint64(pkt.Dst)<<24|
						uint64(pkt.Size)<<8|uint64(eng.Now()&0xff))
					hash = fnv1a(hash, uint64(eng.Now()))
					return true
				}))
			}

			count := 0
			for _, b := range data[min(len(data), 2):] {
				src := TileID(b & 0x03)
				dst := TileID((b >> 2) & 0x03)
				size := 16 << ((b >> 4) & 0x03)
				at := sim.Time((b>>6)&0x03) * 100 * sim.Nanosecond
				eng.At(at, func() {
					net.Send(net.NewPacket(src, dst, size, nil))
				})
				count++
			}
			eng.Run()

			sends = int64(count)
			delivered = net.Delivered()
			dropped = net.Dropped()
			dups = inj.NoCDups()
			discards = inj.NoCDupDiscards()
			return
		}

		h1, sends, delivered, dropped, dups, discards := run()
		if sends != delivered+dropped {
			t.Fatalf("conservation violated: %d sends, %d delivered + %d dropped",
				sends, delivered, dropped)
		}
		if dups != discards {
			t.Fatalf("%d ghost duplicates injected but %d discarded", dups, discards)
		}
		if len(data) > 1 && data[1]&0x03 == 0 && dropped != 0 {
			t.Fatalf("%d drops with unbounded retries", dropped)
		}
		h2, sends2, delivered2, dropped2, _, _ := run()
		if h1 != h2 || sends != sends2 || delivered != delivered2 || dropped != dropped2 {
			t.Fatalf("replay diverged: hash %#x/%#x, sends %d/%d, delivered %d/%d, dropped %d/%d",
				h1, h2, sends, sends2, delivered, delivered2, dropped, dropped2)
		}
	})
}
