package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/sim"
)

// chanInfo is model-level coordination between test programs (stands in for
// out-of-band setup a parent would normally do).
type chanInfo struct {
	sgateSel cap.Sel
	ready    bool
}

func TestEndToEndRemoteRPC(t *testing.T) {
	sys := New(FPGAConfig())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	clientTile, serverTile := procs[1], procs[2]

	var got []byte
	share := &chanInfo{}

	root := sys.SpawnRoot(clientTile, "client", nil, func(a *activity.Activity) {
		tiles := TileSels(a)
		// Spawn the server; it will create a channel and delegate the send
		// gate back to us.
		clientID := a.ID
		ref, err := a.Spawn(tiles[serverTile], serverTile, "server",
			map[string]interface{}{"share": share, "client": clientID},
			serverProg)
		if err != nil {
			t.Errorf("spawn server: %v", err)
			return
		}
		// Wait until the server published the send-gate selector.
		for !share.ready {
			a.Compute(1000)
			a.Yield()
		}
		sgEp, err := a.SysActivate(share.sgateSel)
		if err != nil {
			t.Errorf("activate sgate: %v", err)
			return
		}
		rgSel, err := a.SysCreateRGate(2, 128)
		if err != nil {
			t.Errorf("create reply rgate: %v", err)
			return
		}
		rgEp, err := a.SysActivate(rgSel)
		if err != nil {
			t.Errorf("activate reply rgate: %v", err)
			return
		}
		resp, err := a.Call(sgEp, rgEp, []byte("ping"))
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		got = bytes.Clone(resp) // valid only until the next Call
		// Wait for the server to exit.
		code, err := a.SysWait(ref.ActSel)
		if err != nil || code != 7 {
			t.Errorf("wait = (%d,%v), want (7,nil)", code, err)
		}
	})

	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}
	if !bytes.Equal(got, []byte("pong")) {
		t.Errorf("reply = %q, want pong", got)
	}
}

func serverProg(a *activity.Activity) {
	share := a.Env["share"].(*chanInfo)
	client := a.Env["client"].(uint32)
	rgSel, err := a.SysCreateRGate(4, 128)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		panic(err)
	}
	sgSel, err := a.SysCreateSGate(rgSel, 0x77, 2)
	if err != nil {
		panic(err)
	}
	delegated, err := a.SysDelegate(client, sgSel)
	if err != nil {
		panic(err)
	}
	share.sgateSel = delegated
	share.ready = true
	// Serve exactly one request.
	slot, msg := a.Recv(rgEp)
	if msg.Label != 0x77 {
		panic("wrong label")
	}
	if err := a.ReplyMsg(rgEp, slot, msg, []byte("pong"), 0); err != nil {
		panic(err)
	}
	a.Exit(7)
}

func TestEndToEndMemoryGate(t *testing.T) {
	sys := New(FPGAConfig())
	defer sys.Shutdown()
	tile := sys.Cfg.ProcessingTiles()[0]

	ok := false
	root := sys.SpawnRoot(tile, "memuser", nil, func(a *activity.Activity) {
		sel, err := a.SysCreateMGate(64*1024, dtu.PermRW)
		if err != nil {
			t.Errorf("create mgate: %v", err)
			return
		}
		ep, err := a.SysActivate(sel)
		if err != nil {
			t.Errorf("activate mgate: %v", err)
			return
		}
		payload := bytes.Repeat([]byte("m3v!"), 3000) // 12000 bytes, multi-page
		if err := a.WriteMem(ep, 100, payload, 0); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		back := make([]byte, len(payload))
		if err := a.ReadMem(ep, 100, back, 0); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(back, payload) {
			t.Error("read-back mismatch")
			return
		}
		// A read within one page lands in the caller's buffer; scribbling
		// on it afterwards must not reach the memory tile.
		one := make([]byte, 7)
		for i := 0; i < 2; i++ {
			if err := a.ReadMem(ep, 100, one, 0); err != nil || !bytes.Equal(one, payload[:7]) {
				t.Errorf("single-page read %d = (%q, %v), want %q", i, one, err, payload[:7])
				return
			}
			copy(one, "XXXXXXX")
		}
		if err := a.ReadMem(ep, 100, nil, 0); err != nil {
			t.Errorf("empty read: %v", err)
		}
		// A derived read-only window must reject writes.
		roSel, err := a.SysDeriveMGate(sel, 0, 4096, dtu.PermR)
		if err != nil {
			t.Errorf("derive: %v", err)
			return
		}
		roEp, err := a.SysActivate(roSel)
		if err != nil {
			t.Errorf("activate derived: %v", err)
			return
		}
		if err := a.WriteMem(roEp, 0, []byte("x"), 0); err == nil {
			t.Error("write through read-only window succeeded")
		}
		ok = true
	})
	sys.Run(10 * sim.Second)
	if !root.Done() || !ok {
		t.Fatal("root did not complete")
	}
}

func TestEndToEndRevokeTearsDownChannel(t *testing.T) {
	sys := New(FPGAConfig())
	defer sys.Shutdown()
	tile := sys.Cfg.ProcessingTiles()[0]

	root := sys.SpawnRoot(tile, "revoker", nil, func(a *activity.Activity) {
		rgSel, err := a.SysCreateRGate(2, 64)
		if err != nil {
			t.Errorf("create rgate: %v", err)
			return
		}
		if _, err := a.SysActivate(rgSel); err != nil {
			t.Errorf("activate rgate: %v", err)
			return
		}
		sgSel, err := a.SysCreateSGate(rgSel, 1, 1)
		if err != nil {
			t.Errorf("create sgate: %v", err)
			return
		}
		sgEp, err := a.SysActivate(sgSel)
		if err != nil {
			t.Errorf("activate sgate: %v", err)
			return
		}
		// Loopback send works before revocation.
		if err := a.Send(sgEp, []byte("ok"), 0, -1, 0); err != nil {
			t.Errorf("send before revoke: %v", err)
			return
		}
		if err := a.SysRevoke(sgSel); err != nil {
			t.Errorf("revoke: %v", err)
			return
		}
		// The endpoint was invalidated by the controller.
		if err := a.Send(sgEp, []byte("no"), 0, -1, 0); err == nil {
			t.Error("send after revoke succeeded")
		}
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}
}

func TestEndToEndServiceSession(t *testing.T) {
	sys := New(FPGAConfig())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()

	srvReady := &chanInfo{}
	var answer []byte
	root := sys.SpawnRoot(procs[0], "client", nil, func(a *activity.Activity) {
		tiles := TileSels(a)
		_, err := a.Spawn(tiles[procs[1]], procs[1], "echo-srv",
			map[string]interface{}{"share": srvReady}, echoService)
		if err != nil {
			t.Errorf("spawn service: %v", err)
			return
		}
		for !srvReady.ready {
			a.Compute(1000)
			a.Yield()
		}
		sess, err := a.SysOpenSess("echo")
		if err != nil {
			t.Errorf("open sess: %v", err)
			return
		}
		sgEp, err := a.SysActivate(sess.SGateSel)
		if err != nil {
			t.Errorf("activate session gate: %v", err)
			return
		}
		rgSel, _ := a.SysCreateRGate(1, 128)
		rgEp, _ := a.SysActivate(rgSel)
		answer, err = a.Call(sgEp, rgEp, []byte("hello"))
		if err != nil {
			t.Errorf("session call: %v", err)
		}
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}
	if !bytes.Equal(answer, []byte("hello/echoed")) {
		t.Errorf("answer = %q", answer)
	}
}

func echoService(a *activity.Activity) {
	share := a.Env["share"].(*chanInfo)
	rgSel, err := a.SysCreateRGate(8, 128)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		panic(err)
	}
	if err := a.SysCreateSrv("echo", rgSel); err != nil {
		panic(err)
	}
	share.ready = true
	a.Serve(rgEp, func(msg *dtu.Message) ([]byte, bool) {
		return append(append([]byte{}, msg.Data...), []byte("/echoed")...), true
	})
}

// TestM3vNoRecipientSkipsForward pins the slow-path selection of the
// activity runtime: on the vDTU, dtu.ErrNoRecipient means the target is not
// a receive endpoint, so Send returns it to the caller instead of issuing
// the OpForward syscall that a plain DTU (M³x) falls back to.
func TestM3vNoRecipientSkipsForward(t *testing.T) {
	sys := New(FPGAConfig())
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	const sgEp, tgtEp dtu.EpID = dtu.NumEPs - 1, dtu.NumEPs - 2

	root := sys.SpawnRoot(procs[0], "sender", nil, func(a *activity.Activity) {
		// The target endpoint on the other tile was never configured.
		if err := a.D.ConfigureLocal(sgEp, dtu.SendEP(a.Local, procs[1], tgtEp, 0, 1, 64)); err != nil {
			t.Errorf("configure send gate: %v", err)
			return
		}
		before := sys.Kern.Syscalls()
		if err := a.Send(sgEp, []byte("x"), 0, -1, 0); !errors.Is(err, dtu.ErrNoRecipient) {
			t.Errorf("send err = %v, want %v", err, dtu.ErrNoRecipient)
		}
		if n := sys.Kern.Syscalls() - before; n != 0 {
			t.Errorf("send issued %d syscalls, want 0 (no OpForward on M³v)", n)
		}
	})
	sys.Run(10 * sim.Second)
	if !root.Done() {
		t.Fatal("root did not finish")
	}
}

// TestRootsBootTogether spawns three roots on different tiles before the
// run starts, so all boot processes send requests to the tiles' TileMuxes
// at once. The requests share the controller's request buffer and its one
// reply endpoint; each root must still boot and finish a syscall, on M3v
// and on M3x. With three, one request is built while two others wait.
func TestRootsBootTogether(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"M3v", FPGAConfig()}, {"M3x", Gem5Config(3).WithM3x()}} {
		sys := New(tc.cfg)
		procs := sys.Cfg.ProcessingTiles()
		var roots []*Handle
		for i, tile := range procs[:3] {
			roots = append(roots, sys.SpawnRoot(tile, fmt.Sprintf("root%d", i), nil, func(a *activity.Activity) {
				if err := a.SysNoop(); err != nil {
					t.Errorf("%s: noop: %v", tc.name, err)
				}
			}))
		}
		sys.Run(30 * sim.Second)
		for i, h := range roots {
			if !h.Done() {
				t.Errorf("%s: root %d did not finish", tc.name, i)
			}
		}
		sys.Shutdown()
	}
}
