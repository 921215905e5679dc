package dtu

import (
	"bytes"
	"testing"

	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// fnvFold folds one value into an FNV-1a hash (the determinism fingerprint
// of the command fuzz harness).
func fnvFold(h, v uint64) uint64 {
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

// errCodeOf maps a command result to a stable fingerprint code.
func errCodeOf(err error) uint64 {
	if err == nil {
		return 1
	}
	return 0x100 + uint64(errCode(err))
}

// The fuzz rig's memory endpoint covers [memBase, memBase+memSize) of DRAM.
const (
	memBase = 0x1000
	memSize = 0x2000
	guard   = 0xEE // the DRAM bytes just outside the region
)

// memOff maps a memory command's 5-bit operand to an endpoint offset: below
// 16, 8-byte steps inside the region; from 16 on, the 16 offsets just below
// 2^64, where off+len wraps around for the last ones.
func memOff(arg int) uint64 {
	if arg < 16 {
		return uint64(arg) * 8
	}
	return -uint64(32 - arg)
}

// FuzzDTUCommands drives arbitrary DTU command sequences decoded from the
// fuzz input against a two-tile rig (plain DTUs, both recipients running)
// plus a memory tile, with an optional fault injector armed:
//
//   - no command sequence panics or wedges the simulation: every command
//     returns (possibly with an error) and the run reaches quiescence;
//   - commands fail with the documented error values on bad arguments
//     (oversized messages, empty fetches, exhausted credits) and recover
//     transparently from injected transfer faults;
//   - determinism: replaying the input on a fresh rig reproduces the exact
//     command results and message flow;
//   - isolation: no READ or WRITE reaches DRAM outside the memory
//     endpoint's region, not even at offsets near 2^64 whose end wraps
//     around: the bytes outside never change, and a READ never returns
//     them.
//
// Input layout: byte 0 arms the fault injector (rate + seed) and, in its top
// two bits, bounds the NoC's retries per packet (0 = unbounded), so packets
// can be dropped for good and commands must time out instead of wedging;
// every further byte is one command (3-bit opcode, 5 bits of operand); see
// memOff for the offsets of the memory commands.
func FuzzDTUCommands(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x01, 0x02, 0x03, 0x04})             // one of each, no faults
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x02, 0x02, 0x02})       // faults + sends, then drain
	f.Add([]byte{0x03, 0x06, 0x07, 0x05, 0x00, 0x01, 0x02})       // error paths mixed in
	f.Add([]byte{0x07, 0x00, 0x01, 0x00, 0x01, 0x03, 0x04, 0x02}) // credit pressure under faults
	// One try per packet (MaxRetries 1): NACKs and drops are terminal.
	f.Add([]byte{0x47, 0x00, 0x01, 0x01, 0x01, 0x01, 0x03, 0x04, 0x00, 0x02, 0x0D, 0x02})
	// RPCs whose replies are never drained: the echo's REPLY is NACKed until
	// the engine stops.
	f.Add([]byte("000000"))
	// Reads and writes just below 2^64, some wrapping past it.
	f.Add([]byte{0x00, 0xFC, 0xF4, 0x84, 0xFB, 0xF3, 0x83})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		run := func() uint64 {
			eng := sim.NewEngine()
			defer eng.Shutdown()
			cfg := noc.DefaultConfig()
			if len(data) > 0 {
				cfg.MaxRetries = int(data[0] >> 6)
			}
			net := noc.New(eng, noc.StarMesh{NumTiles: 4}, cfg)
			d0 := New(eng, net, 0, sim.MHz(80), false)
			d1 := New(eng, net, 1, sim.MHz(80), false)
			dram := mem.New(eng, mem.DefaultConfig(1<<20))
			NewMemory(eng, net, 2, dram)
			// Guard bytes on both sides of the region. The driver only
			// writes bytes below 0x60, so a READ that returns a guard byte
			// has read outside the region.
			dram.WriteAt(memBase-PageSize, bytes.Repeat([]byte{guard}, PageSize))
			dram.WriteAt(memBase+memSize, bytes.Repeat([]byte{guard}, PageSize))
			outside := func() []byte {
				b := make([]byte, dram.Size()-memSize)
				dram.ReadAt(0, b[:memBase])
				dram.ReadAt(memBase+memSize, b[memBase:])
				return b
			}
			before := outside()

			if len(data) > 0 {
				if rate := float64(data[0]&0x07) / 40; rate > 0 {
					inj := fault.New(eng, fault.Config{Seed: uint64(data[0]), Rate: rate})
					net.SetInjector(inj)
					d0.SetInjector(inj)
					d1.SetInjector(inj)
				}
			}

			d0.SetCurAct(actA)
			d1.SetCurAct(actB)
			must(d0.ConfigureLocal(10, SendEP(actA, 1, 20, 0x1234, 4, 256)))
			must(d0.ConfigureLocal(11, RecvEP(actA, 4, 256)))
			must(d0.ConfigureLocal(8, MemEP(actA, 2, memBase, memSize, PermRW)))
			must(d1.ConfigureLocal(20, RecvEP(actB, 4, 256)))

			var hash uint64
			ops := data[min(len(data), 1):]
			done := false
			eng.Spawn("driver", func(p *sim.Proc) {
				for i, b := range ops {
					op := b & 0x07
					arg := int(b >> 3)
					var err error
					switch op {
					case 0: // RPC-style send with reply endpoint
						err = d0.Send(p, SendArgs{Ep: 10, Data: []byte{byte(i)}, ReplyEp: 11, ReplyLabel: 0x99})
					case 1: // one-way send
						err = d0.Send(p, SendArgs{Ep: 10, Data: []byte{byte(i)}, ReplyEp: -1})
					case 2: // drain one reply if present
						if d0.HasUnread(11) {
							var slot int
							slot, _, err = d0.Fetch(p, 11)
							if err == nil {
								err = d0.Ack(p, 11, slot)
							}
						}
					case 3: // DRAM write through the memory endpoint
						err = d0.Write(p, 8, memOff(arg), []byte{byte(i), byte(arg)}, 0)
					case 4: // DRAM read back
						got := make([]byte, 2)
						err = d0.ReadInto(p, 8, memOff(arg), got, 0)
						if err == nil && bytes.IndexByte(got, guard) >= 0 {
							t.Errorf("read at %#x returned guard bytes %x", memOff(arg), got)
						}
					case 5: // let the responder catch up
						p.Sleep(sim.Time(arg+1) * 10 * sim.Microsecond)
					case 6: // oversized message: must fail, not wedge
						err = d0.Send(p, SendArgs{Ep: 10, Data: make([]byte, 300), ReplyEp: -1})
					default: // fetch from an empty or wrong endpoint
						_, _, err = d0.Fetch(p, EpID(arg%3)+11)
					}
					hash = fnvFold(hash, uint64(i)<<32|uint64(op)<<16|errCodeOf(err))
				}
				// Give in-flight replies time to land, then stop the echo and
				// the engine: an undrained reply would otherwise be NACKed
				// every retry delay until the RunUntil limit.
				p.Sleep(10 * sim.Millisecond)
				done = true
				eng.Stop()
			})
			eng.Spawn("echo", func(p *sim.Proc) {
				// Echo server on tile 1: replies to RPCs, acks one-way sends.
				for !done {
					if d1.HasUnread(20) {
						slot, m, err := d1.Fetch(p, 20)
						if err == nil {
							if m.ReplyEp >= 0 {
								err = d1.Reply(p, 20, slot, []byte{2}, 0)
							} else {
								err = d1.Ack(p, 20, slot)
							}
						}
						hash = fnvFold(hash, 0xEC00|errCodeOf(err))
						continue
					}
					p.Sleep(20 * sim.Microsecond)
				}
			})
			eng.RunUntil(5 * sim.Second)
			if !done {
				t.Fatal("a command never returned")
			}
			if !bytes.Equal(outside(), before) {
				t.Fatal("DRAM outside the memory endpoint's region changed")
			}
			hash = fnvFold(hash, uint64(net.Delivered())<<32|uint64(net.Nacked())<<8|uint64(net.Dropped()))
			hash = fnvFold(hash, uint64(eng.Now()))
			return hash
		}

		h1 := run()
		h2 := run()
		if h1 != h2 {
			t.Fatalf("replay diverged: %#x vs %#x", h1, h2)
		}
	})
}
