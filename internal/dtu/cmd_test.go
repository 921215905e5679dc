package dtu

import (
	"bytes"
	"errors"
	"testing"

	"m3v/internal/fault"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// TestMessagePathAllocs guards the allocation-free round trips. One
// process drives both tiles of a warm rig through an RPC (Send, Fetch,
// Reply, Fetch, Ack), a one-way message whose Ack returns the credit, a
// page READ and WRITE, and each external request. None allocates: payloads
// travel in the pooled commands' buffers into the receive slots' own,
// Fetch returns a view of the slot, the credit return is a queued record
// sent by a cached callback, and ReadInto and ReadEpsRemote fill caller
// buffers.
func TestMessagePathAllocs(t *testing.T) {
	r := newRig(t, true)
	setupChannel(r, actB, 4)
	must(r.d0.ConfigureLocal(8, MemEP(actA, 2, 0, 1<<16, PermRW)))
	r.d1.OnMsgArrived = func(ActID) {}
	req, resp := []byte("ping"), []byte("pong")

	var op func(p *sim.Proc)
	pending := false
	client := r.eng.Spawn("client", func(p *sim.Proc) {
		for {
			for !pending {
				p.Park()
			}
			op(p)
			pending = false
		}
	})
	step := func() {
		pending = true
		client.Wake()
		r.eng.Run()
		if pending {
			t.Fatal("operation did not complete")
		}
	}

	rpc := func(p *sim.Proc) {
		must(r.d0.Send(p, SendArgs{Ep: 10, Data: req, ReplyEp: 11, ReplyLabel: 0x99}))
		slot, _, err := r.d1.Fetch(p, 20)
		must(err)
		must(r.d1.Reply(p, 20, slot, resp, 0))
		slot, _, err = r.d0.Fetch(p, 11)
		must(err)
		must(r.d0.Ack(p, 11, slot))
	}
	oneWay := func(p *sim.Proc) {
		must(r.d0.Send(p, SendArgs{Ep: 10, Data: req, ReplyEp: -1}))
		slot, _, err := r.d1.Fetch(p, 20)
		must(err)
		must(r.d1.Ack(p, 20, slot))
	}
	conf := SendEP(actB, 0, 7, 0xABC, 3, 128)
	confs := []EpConf{{Ep: 30, Conf: conf}, {Ep: 31, Conf: conf}}
	buf := make([]Endpoint, 0, 2)
	page := make([]byte, PageSize)
	cases := []struct {
		name string
		max  float64
		op   func(p *sim.Proc)
	}{
		{"Send-Fetch-Reply-Fetch-Ack", 0, rpc},
		{"Send-Fetch-Ack", 0, oneWay},
		{"Write", 0, func(p *sim.Proc) { must(r.d0.Write(p, 8, PageSize, page, 0)) }},
		{"ReadInto", 0, func(p *sim.Proc) { must(r.d0.ReadInto(p, 8, PageSize, page, 0)) }},
		{"ConfigureRemote", 0, func(p *sim.Proc) { must(r.d0.ConfigureRemote(p, 1, 5, conf)) }},
		{"WriteEpsRemote", 0, func(p *sim.Proc) { must(r.d0.WriteEpsRemote(p, 1, confs)) }},
		{"ReadEpsRemote", 0, func(p *sim.Proc) {
			eps, err := r.d0.ReadEpsRemote(p, 1, 30, 2, buf)
			must(err)
			if len(eps) != 2 || eps[0].Label != 0xABC {
				panic("ReadEpsRemote read the wrong endpoints")
			}
		}},
	}
	for _, tc := range cases {
		op = tc.op
		for i := 0; i < 4; i++ {
			step() // warm the command pool and the queue
		}
		if avg := testing.AllocsPerRun(200, step); avg > tc.max {
			t.Errorf("%s: %.2f allocs per operation, want <= %.0f", tc.name, avg, tc.max)
		}
	}
}

// cmdLedger is the bookkeeping of TestPooledCommandsUnderFaults: how many
// commands were issued and returned, the fingerprint of their results, and
// per send endpoint the credits that left with a stored message or came back.
type cmdLedger struct {
	issued, returned int
	hash             uint64
	errs             map[error]int
	sent, back       map[EpID]int
}

// TestPooledCommandsUnderFaults checks the lifetime of pooled commands
// when several are in flight on one DTU and the NoC gives up on packets.
// Two processes on tile 0 issue round trips concurrently: RPCs with
// memory writes and read-backs, one-way sends into a one-slot buffer that
// is drained slowly (NACK retries until the NoC drops the packet), and
// sends to an endpoint nobody owns (ErrNoRecipient). Faults are injected
// and the NoC retries a packet at most 3 times, so terminal drops fire
// Drop callbacks on requests and responses. Every command must return
// exactly once with one of its documented errors, the credit arithmetic of
// every send endpoint must balance at every return, and a replay on a
// fresh rig must reproduce the fingerprint.
func TestPooledCommandsUnderFaults(t *testing.T) {
	run := func() (cmdLedger, int64) {
		eng := sim.NewEngine()
		defer eng.Shutdown()
		cfg := noc.DefaultConfig()
		cfg.MaxRetries = 3
		net := noc.New(eng, noc.StarMesh{NumTiles: 4}, cfg)
		d0 := New(eng, net, 0, sim.MHz(80), false)
		d1 := New(eng, net, 1, sim.MHz(80), false)
		NewMemory(eng, net, 2, mem.New(eng, mem.DefaultConfig(1<<20)))
		inj := fault.New(eng, fault.Config{Seed: 7, Rate: 0.2})
		net.SetInjector(inj)
		d0.SetInjector(inj)
		d1.SetInjector(inj)

		d0.SetCurAct(actA)
		d1.SetCurAct(actB)
		must(d0.ConfigureLocal(10, SendEP(actA, 1, 20, 0x10, 2, 64))) // RPCs
		must(d0.ConfigureLocal(11, RecvEP(actA, 4, 64)))              // their replies
		must(d0.ConfigureLocal(12, SendEP(actA, 1, 21, 0x12, 2, 64))) // one-way, slow drain
		must(d0.ConfigureLocal(13, SendEP(actA, 1, 22, 0x13, 2, 64))) // no recipient
		must(d0.ConfigureLocal(8, MemEP(actA, 2, 0, 1<<16, PermRW)))
		must(d1.ConfigureLocal(20, RecvEP(actB, 4, 64)))
		must(d1.ConfigureLocal(21, RecvEP(actB, 1, 64)))
		must(d1.ConfigureLocal(22, RecvEP(ActID(9), 2, 64))) // owner never runs

		l := cmdLedger{errs: map[error]int{}, sent: map[EpID]int{}, back: map[EpID]int{}}
		d0.OnCredits = func(ep EpID) { l.back[ep]++ }
		// check balances one send endpoint: every credit is at the
		// endpoint or left with a stored message that has not returned it.
		check := func(ep EpID) {
			e := d0.Ep(ep)
			if e.Credits < 0 || e.Credits > e.MaxCredits {
				t.Errorf("ep %d: credits %d outside [0, %d]", ep, e.Credits, e.MaxCredits)
			}
			if want := e.MaxCredits - l.sent[ep] + l.back[ep]; e.Credits != want {
				t.Errorf("ep %d: credits %d, ledger says %d", ep, e.Credits, want)
			}
		}
		// issue runs one command and checks that it returns once, with
		// one of the errors documented for it.
		issue := func(i int, allowed []error, f func() error) error {
			l.issued++
			err := f()
			l.returned++
			ok := false
			for _, a := range allowed {
				ok = ok || err == a
			}
			if !ok {
				t.Errorf("command %d returned %v, want one of %v", i, err, allowed)
			}
			l.errs[err]++
			l.hash = fnvFold(l.hash, uint64(i)<<16|errCodeOf(err))
			return err
		}
		send := func(i int, ep, replyEp EpID, p *sim.Proc, allowed ...error) error {
			return issue(i, allowed, func() error {
				err := d0.Send(p, SendArgs{Ep: ep, Data: []byte{byte(i)}, ReplyEp: replyEp})
				if err == nil {
					l.sent[ep]++
				}
				check(ep)
				return err
			})
		}

		const rounds = 40
		finished := 0
		eng.Spawn("rpc", func(p *sim.Proc) {
			defer func() { finished++ }()
			for i := 0; i < rounds; i++ {
				off := uint64(i%16) * 8
				werr := issue(i, []error{nil, ErrXferTimeout}, func() error {
					return d0.Write(p, 8, off, []byte{byte(i), 0xA5}, 0)
				})
				issue(i, []error{nil, ErrXferTimeout}, func() error {
					data := make([]byte, 2)
					err := d0.ReadInto(p, 8, off, data, 0)
					if err == nil && werr == nil && !bytes.Equal(data, []byte{byte(i), 0xA5}) {
						t.Errorf("read back %x after writing %x", data, []byte{byte(i), 0xA5})
					}
					return err
				})
				send(i, 10, 11, p, nil, ErrXferTimeout, ErrNoCredits)
				// Collect whatever replies have arrived.
				for d0.HasUnread(11) {
					issue(i, []error{nil}, func() error {
						slot, _, err := d0.Fetch(p, 11)
						if err == nil {
							err = d0.Ack(p, 11, slot)
						}
						return err
					})
				}
				p.Sleep(5 * sim.Microsecond)
			}
		})
		eng.Spawn("oneway", func(p *sim.Proc) {
			defer func() { finished++ }()
			for i := 0; i < rounds; i++ {
				send(1000+i, 12, -1, p, nil, ErrXferTimeout, ErrNoCredits)
				send(2000+i, 13, -1, p, ErrNoRecipient, ErrXferTimeout)
			}
		})
		stop := false
		eng.Spawn("echo", func(p *sim.Proc) {
			for !stop {
				if d1.HasUnread(20) {
					slot, _, err := d1.Fetch(p, 20)
					if err == nil && d1.Reply(p, 20, slot, []byte{0xEC}, 0) != nil {
						// The reply did not get through: free the slot
						// and return the credit explicitly.
						err = d1.Ack(p, 20, slot)
					}
					if err != nil {
						t.Errorf("echo: %v", err)
					}
					continue
				}
				p.Sleep(2 * sim.Microsecond)
			}
		})
		eng.Spawn("drain", func(p *sim.Proc) {
			for !stop {
				p.Sleep(50 * sim.Microsecond)
				if d1.HasUnread(21) {
					slot, _, err := d1.Fetch(p, 21)
					if err == nil {
						err = d1.Ack(p, 21, slot)
					}
					if err != nil {
						t.Errorf("drain: %v", err)
					}
				}
			}
		})
		eng.Spawn("stop", func(p *sim.Proc) {
			for finished < 2 {
				p.Sleep(100 * sim.Microsecond)
			}
			p.Sleep(sim.Millisecond) // let answers in flight land
			stop = true
		})
		eng.RunUntil(10 * sim.Second)

		if finished != 2 || !stop {
			t.Fatalf("issuers finished: %d of 2 (a command never returned)", finished)
		}
		if l.issued != l.returned {
			t.Errorf("%d commands issued, %d returned", l.issued, l.returned)
		}
		for _, ep := range []EpID{10, 12, 13} {
			check(ep)
		}
		// Every pooled command is back on the free list, once, and clean.
		seen := map[*cmd]bool{}
		for _, c := range d0.freeCmds {
			if seen[c] || c.done || c.p != nil || c.msg.Data != nil {
				t.Errorf("free list holds a duplicate or uncleared command: %+v", c)
			}
			seen[c] = true
		}
		if len(seen) < 2 {
			t.Errorf("pool holds %d commands, want >= 2 (two issuers in flight)", len(seen))
		}
		l.hash = fnvFold(l.hash, uint64(net.Delivered())<<32|uint64(net.Nacked())<<8|uint64(net.Dropped()))
		l.hash = fnvFold(l.hash, uint64(eng.Now()))
		return l, net.Dropped()
	}

	l1, dropped := run()
	l2, _ := run()
	if l1.hash != l2.hash {
		t.Fatalf("replay diverged: %#x vs %#x", l1.hash, l2.hash)
	}
	t.Logf("results %v, %d packets dropped for good", l1.errs, dropped)
	// The scenario must reach the paths it claims to test.
	if dropped == 0 || l1.errs[ErrXferTimeout] == 0 {
		t.Errorf("no terminal drops surfaced (dropped %d, timeouts %d)", dropped, l1.errs[ErrXferTimeout])
	}
	if l1.errs[ErrNoRecipient] == 0 || l1.errs[nil] == 0 {
		t.Errorf("results %v lack ErrNoRecipient or successes", l1.errs)
	}
}

// TestFailedReadLeavesDst pins ReadInto's contract that dst changes only
// when the command succeeds: neither a READ refused by the endpoint checks
// nor one whose request or response the NoC drops for good (at most one
// try per packet under injected faults) may write into the caller's buffer.
func TestFailedReadLeavesDst(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	cfg := noc.DefaultConfig()
	cfg.MaxRetries = 1
	net := noc.New(eng, noc.StarMesh{NumTiles: 4}, cfg)
	d0 := New(eng, net, 0, sim.MHz(80), false)
	dram := mem.New(eng, mem.DefaultConfig(1<<20))
	NewMemory(eng, net, 2, dram)
	net.SetInjector(fault.New(eng, fault.Config{Seed: 3, Rate: 0.3}))
	d0.SetCurAct(actA)
	must(d0.ConfigureLocal(8, MemEP(actA, 2, 0, PageSize, PermRW)))
	must(d0.ConfigureLocal(9, MemEP(actA, 2, 0, PageSize, PermW)))
	stored := bytes.Repeat([]byte{0x5A}, 64)
	dram.WriteAt(0, stored)

	untouched := bytes.Repeat([]byte{0xEE}, 64)
	results := map[error]int{}
	eng.Spawn("reader", func(p *sim.Proc) {
		for _, ep := range []EpID{9, 8} { // write-only, then out of bounds
			dst := bytes.Clone(untouched)
			off := uint64(0)
			if ep == 8 {
				off = PageSize - 32
			}
			if err := d0.ReadInto(p, ep, off, dst, 0); !errors.Is(err, ErrNoPerm) || !bytes.Equal(dst, untouched) {
				t.Errorf("refused read on ep %d = (%x, %v), want ErrNoPerm and dst untouched", ep, dst, err)
			}
		}
		for i := 0; i < 200; i++ {
			dst := bytes.Clone(untouched)
			err := d0.ReadInto(p, 8, 0, dst, 0)
			results[err]++
			want := stored
			if err != nil {
				want = untouched
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("read %d returned %v and left dst %x, want %x", i, err, dst, want)
			}
		}
	})
	eng.RunUntil(10 * sim.Second)
	if results[nil] == 0 || results[ErrXferTimeout] == 0 || len(results) != 2 {
		t.Errorf("results %v, want successes and ErrXferTimeout only", results)
	}
}
