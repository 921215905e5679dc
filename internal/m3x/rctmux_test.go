package m3x

import (
	"testing"

	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/tilemux"
)

// rctRig is one RCTMux tile (0) with a lone activity waiting on receive
// gate 16, a controller DTU on tile 1 and a sender DTU on tile 2.
type rctRig struct {
	eng    *sim.Engine
	m      *RCTMux
	a      *Act
	kd, sd *dtu.DTU
}

const (
	rigWaitGate dtu.EpID = 16
	rigMuxSgate dtu.EpID = 8 // controller -> RCTMux
	rigMuxReply dtu.EpID = 9
	rigSgate    dtu.EpID = 10 // sender -> waiter
)

// newRctRig builds the rig; the waiter records when WaitForMsg returns.
func newRctRig(t *testing.T, returned *sim.Time) *rctRig {
	t.Helper()
	eng := sim.NewEngine()
	t.Cleanup(eng.Shutdown)
	net := noc.New(eng, noc.StarMesh{NumTiles: 3}, noc.DefaultConfig())
	d := dtu.New(eng, net, 0, sim.MHz(80), false)
	r := &rctRig{
		eng: eng,
		kd:  dtu.New(eng, net, 1, sim.MHz(100), false),
		sd:  dtu.New(eng, net, 2, sim.MHz(100), false),
	}
	for _, err := range []error{
		d.ConfigureLocal(tilemux.EpKernRgate, dtu.RecvEP(dtu.ActTileMux, 4, 256)),
		d.ConfigureLocal(rigWaitGate, dtu.RecvEP(1, 2, 64)),
		r.kd.ConfigureLocal(rigMuxSgate, dtu.SendEP(dtu.ActInvalid, 0, tilemux.EpKernRgate, 0, 1, 256)),
		r.kd.ConfigureLocal(rigMuxReply, dtu.RecvEP(dtu.ActInvalid, 1, 256)),
		r.sd.ConfigureLocal(rigSgate, dtu.SendEP(dtu.ActInvalid, 0, rigWaitGate, 0x51, 1, 64)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	r.m = New(eng, sim.MHz(80), d)
	r.a = &Act{ID: 1, Name: "waiter", mux: r.m, started: true}
	r.m.acts[r.a.ID] = r.a
	eng.Spawn("waiter", func(p *sim.Proc) {
		r.m.Attach(r.a.ID, p)
		r.a.WaitForMsg(rigWaitGate)
		*returned = p.Now()
	})
	return r
}

// TestIdleWakeSources pins RCTMux's wake sources of an idle WaitForMsg: a
// message for the current activity and a controller stop. The waiter acts
// at the trigger's sim time plus the modelled costs of what follows,
// whatever the trigger's offset within a microsecond.
func TestIdleWakeSources(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop bool // the controller requests a stop instead of a message arriving
	}{
		{name: "message"},
		{name: "stop request", stop: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cost sim.Time
			for i, off := range []sim.Time{0, 250 * sim.Nanosecond, 730 * sim.Nanosecond} {
				T := 50*sim.Microsecond + off
				var returned, arrived, stopped sim.Time
				r := newRctRig(t, &returned)
				waiterArrived := r.m.d.OnMsgArrived
				r.m.d.OnMsgArrived = func(act dtu.ActID) {
					if act == r.a.ID {
						arrived = r.eng.Now()
					}
					waiterArrived(act)
				}
				// The stop reply reaches the controller once the waiter
				// stepped aside.
				r.kd.OnMsgArrived = func(dtu.ActID) { stopped = r.eng.Now() }
				r.eng.Spawn("trigger", func(p *sim.Proc) {
					p.Sleep(T)
					if r.m.Idle.Len() != 1 {
						t.Errorf("%d processes idle before the trigger, want the waiter alone", r.m.Idle.Len())
					}
					var err error
					if tc.stop {
						req := new(proto.Writer).Reset(proto.OpMuxSwitch).Done()
						err = r.kd.Send(p, dtu.SendArgs{Ep: rigMuxSgate, Data: req, ReplyEp: rigMuxReply})
					} else {
						err = r.sd.Send(p, dtu.SendArgs{Ep: rigSgate, Data: []byte("m"), ReplyEp: -1})
					}
					if err != nil {
						t.Errorf("send: %v", err)
					}
				})
				r.eng.RunUntil(T + 200*sim.Microsecond)
				got := returned
				if tc.stop {
					got = stopped
					if returned != 0 || r.m.cur != nil || r.m.Idle.Len() != 0 {
						t.Errorf("T=%v: after the stop the waiter returned at %v, current %v, %d idle; want stepped aside",
							T, returned, r.m.cur, r.m.Idle.Len())
					}
				} else if returned != arrived {
					t.Errorf("T=%v: returned at %v, want the arrival %v", T, returned, arrived)
				}
				if got == 0 {
					t.Fatalf("T=%v: the waiter never acted on the wake", T)
				}
				if i == 0 {
					cost = got - T
				} else if got-T != cost {
					t.Errorf("T=%v: acted %v after the trigger, %v at offset 0: the wake-up depends on the trigger's phase", T, got-T, cost)
				}
			}
		})
	}
}
