package m3x

import (
	"testing"

	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/sim"
	"m3v/internal/tilemux"
)

// driveToken puts the core token into a state through real Acquire calls:
// "held" leaves it held by another process; "mux" leaves it released to a
// multiplexer that has not run yet; "queued" leaves it released to one of
// two queued activities, so the other one still waits in the queue.
func driveToken(eng *sim.Engine, c *tilemux.Core, state string) {
	eng.Spawn("holder", func(p *sim.Proc) { c.Acquire(p, false) })
	eng.RunUntil(eng.Now())
	switch state {
	case "held":
		return
	case "mux":
		eng.Spawn("mux", func(p *sim.Proc) { c.Acquire(p, true) })
	case "queued":
		for i := 0; i < 2; i++ {
			eng.Spawn("waiter", func(p *sim.Proc) { c.Acquire(p, false) })
		}
	}
	eng.RunUntil(eng.Now())
	c.Release(eng.Now())
}

// TestPollIdle pins RCTMux's WaitForMsg poll predicate: it holds while a
// lone current activity polls and fails in every state where the next poll
// iteration (BeginOp, check, EndOp) would do work, a controller stop
// included.
func TestPollIdle(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(eng *sim.Engine, m *RCTMux, a *Act)
		idle bool
	}{
		{"quiescent", func(*sim.Engine, *RCTMux, *Act) {}, true},
		{"token held", func(eng *sim.Engine, m *RCTMux, _ *Act) { driveToken(eng, &m.Core, "held") }, false},
		{"mux waiting", func(eng *sim.Engine, m *RCTMux, _ *Act) { driveToken(eng, &m.Core, "mux") }, false},
		{"activity queued", func(eng *sim.Engine, m *RCTMux, _ *Act) { driveToken(eng, &m.Core, "queued") }, false},
		{"unread message", func(_ *sim.Engine, m *RCTMux, a *Act) { m.d.ResetCur(a.ID, 1) }, false},
		{"not current", func(_ *sim.Engine, m *RCTMux, _ *Act) { m.cur = nil }, false},
		{"stop requested", func(_ *sim.Engine, m *RCTMux, _ *Act) { m.stopReq = true }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			t.Cleanup(eng.Shutdown)
			net := noc.New(eng, noc.StarMesh{NumTiles: 2}, noc.DefaultConfig())
			m := New(eng, sim.MHz(80), dtu.New(eng, net, 0, sim.MHz(80), false), EPConfig{KernRgate: 4, KernSgate: 5})
			a := &Act{ID: 1, Name: "waiter", mux: m, started: true}
			m.acts[a.ID] = a
			eng.Spawn("waiter", func(p *sim.Proc) {
				m.AttachExec(a.ID, p)
				for {
					a.WaitForMsg()
				}
			})
			eng.RunUntil(20 * sim.Microsecond)
			if m.cur != a || !a.PollIdle() {
				t.Fatal("a lone activity in WaitForMsg is not polling idle")
			}
			tc.set(eng, m, a)
			if got := a.PollIdle(); got != tc.idle {
				t.Errorf("PollIdle = %v, want %v", got, tc.idle)
			}
		})
	}
}
