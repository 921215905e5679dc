package kernel

import (
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
)

// handleSyscall dispatches one system call. It returns the response and
// whether the reply is deferred (ActivityWait on a live activity).
func (k *Kernel) handleSyscall(p *sim.Proc, caller *ActEntry, msg *dtu.Message, slot int) ([]byte, bool) {
	op, r, err := proto.ParseOp(msg.Data)
	if err != nil || caller == nil {
		return k.w.Resp(proto.EInvalid), false
	}
	switch op {
	case proto.OpNoop:
		return k.w.Resp(proto.EOK), false

	case proto.OpCreateActivity:
		tileSel := cap.Sel(r.U32())
		name := r.Str()
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		tc, err := caller.Caps.GetKind(tileSel, cap.KindTile)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		tile := tc.Obj.(*TileObj).Tile
		act, err := k.CreateActivity(p, tile, name)
		if err != nil {
			return k.w.Resp(proto.ENoTile), false
		}
		c := caller.Caps.Insert(cap.KindActivity, &ActObj{Entry: act})
		return k.w.Resp(proto.EOK,
			uint64(c.Sel()), uint64(act.ID),
			uint64(act.SyscallSgate)<<32|uint64(act.SyscallRgate)), false

	case proto.OpCreateRGate:
		slots, slotSize := int(r.U32()), int(r.U32())
		if r.Err() != nil || slots <= 0 || slots > 64 || slots&(slots-1) != 0 || slotSize <= 0 {
			return k.w.Resp(proto.EInvalid), false
		}
		obj := &RGateObj{Owner: caller, Slots: slots, SlotSize: slotSize}
		c := caller.Caps.Insert(cap.KindRecvGate, obj)
		return k.w.Resp(proto.EOK, uint64(c.Sel())), false

	case proto.OpCreateSGate:
		rgSel := cap.Sel(r.U32())
		label := r.U64()
		credits := int(r.U32())
		if r.Err() != nil || credits <= 0 {
			return k.w.Resp(proto.EInvalid), false
		}
		rc, err := caller.Caps.GetKind(rgSel, cap.KindRecvGate)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		obj := &SGateObj{RGate: rc.Obj.(*RGateObj), Label: label, Credits: credits}
		c := caller.Caps.Insert(cap.KindSendGate, obj)
		return k.w.Resp(proto.EOK, uint64(c.Sel())), false

	case proto.OpCreateMGate:
		size := r.U64()
		perm := r.U8()
		if r.Err() != nil || size == 0 {
			return k.w.Resp(proto.EInvalid), false
		}
		tile, base, err := k.AllocDRAM(size)
		if err != nil {
			return k.w.Resp(proto.ENoSpace), false
		}
		obj := &MemObj{Tile: tile, Base: base, Size: size}
		c := caller.Caps.InsertMem(obj, 0, size, perm)
		return k.w.Resp(proto.EOK, uint64(c.Sel())), false

	case proto.OpDeriveMGate:
		sel := cap.Sel(r.U32())
		off, size := r.U64(), r.U64()
		perm := r.U8()
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		mc, err := caller.Caps.GetKind(sel, cap.KindMem)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		child, err := mc.DeriveMem(off, size, perm)
		if err != nil {
			return k.w.Resp(proto.EPermDenied), false
		}
		return k.w.Resp(proto.EOK, uint64(child.Sel())), false

	case proto.OpActivate:
		sel := cap.Sel(r.U32())
		hint := dtu.EpID(int32(r.U32()))
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		ep, code := k.activate(p, caller, sel, hint)
		if code != proto.EOK {
			return k.w.Resp(code), false
		}
		return k.w.Resp(proto.EOK, uint64(ep)), false

	case proto.OpDelegate:
		target := r.U32()
		sel := cap.Sel(r.U32())
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		tgt := k.acts[target]
		if tgt == nil {
			return k.w.Resp(proto.ENotFound), false
		}
		c, err := caller.Caps.Get(sel)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		child := c.Delegate(tgt.Caps)
		return k.w.Resp(proto.EOK, uint64(child.Sel())), false

	case proto.OpRevoke:
		sel := cap.Sel(r.U32())
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		c, err := caller.Caps.Get(sel)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		for _, rc := range c.Revoke() {
			if b, ok := k.bindings[rc]; ok {
				delete(k.bindings, rc)
				if err := k.configure(p, b.tile, b.ep, dtu.Endpoint{}); err != nil {
					panic("kernel: endpoint invalidation failed: " + err.Error())
				}
			}
		}
		return k.w.Resp(proto.EOK), false

	case proto.OpCreateSrv:
		name := r.Str()
		rgSel := cap.Sel(r.U32())
		if r.Err() != nil || name == "" {
			return k.w.Resp(proto.EInvalid), false
		}
		if _, dup := k.services[name]; dup {
			return k.w.Resp(proto.EExists), false
		}
		rc, err := caller.Caps.GetKind(rgSel, cap.KindRecvGate)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		rg := rc.Obj.(*RGateObj)
		if !rg.Activated {
			return k.w.Resp(proto.EInvalid), false
		}
		k.services[name] = &SrvObj{Name: name, Owner: caller, RGate: rg}
		k.srvCaps[name] = rc
		return k.w.Resp(proto.EOK), false

	case proto.OpOpenSess:
		name := r.Str()
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		srv := k.services[name]
		if srv == nil {
			return k.w.Resp(proto.ENotFound), false
		}
		id := k.nextSess
		k.nextSess++
		sessCap := caller.Caps.Insert(cap.KindSession, &SessObj{Srv: srv, ID: id})
		sg := &SGateObj{RGate: srv.RGate, Label: id, Credits: 4}
		sgCap := k.srvCaps[name].DelegateAs(caller.Caps, cap.KindSendGate, sg)
		return k.w.Resp(proto.EOK,
			uint64(sgCap.Sel())<<32|uint64(sessCap.Sel()),
			uint64(srv.Owner.ID), id), false

	case proto.OpActivityStart:
		sel := cap.Sel(r.U32())
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		ac, err := caller.Caps.GetKind(sel, cap.KindActivity)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		act := ac.Obj.(*ActObj).Entry
		if err := k.StartActivity(p, act); err != nil {
			return k.w.Resp(proto.ENoTile), false
		}
		return k.w.Resp(proto.EOK), false

	case proto.OpActivityWait:
		sel := cap.Sel(r.U32())
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		ac, err := caller.Caps.GetKind(sel, cap.KindActivity)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		act := ac.Obj.(*ActObj).Entry
		if act.Exited {
			return k.w.Resp(proto.EOK, uint64(uint32(act.ExitCode))), false
		}
		act.waiters = append(act.waiters, pendingWait{slot: slot, msg: msg})
		return nil, true

	case proto.OpMapPages:
		target := r.U32()
		virt := r.U64()
		memSel := cap.Sel(r.U32())
		physOff := r.U64()
		pages := r.U32()
		perm := r.U8()
		if r.Err() != nil || pages == 0 {
			return k.w.Resp(proto.EInvalid), false
		}
		mc, err := caller.Caps.GetKind(memSel, cap.KindMem)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		if n := uint64(pages) * dtu.PageSize; physOff > mc.Size || n > mc.Size-physOff {
			return k.w.Resp(proto.EPermDenied), false
		}
		tgt := k.acts[target]
		if tgt == nil {
			return k.w.Resp(proto.ENotFound), false
		}
		obj := mc.Obj.(*MemObj)
		phys := obj.Base + mc.Off + physOff
		te := k.tiles[tgt.Tile]
		req := k.muxWriter(p, proto.OpMuxMapPages).
			U16(uint16(tgt.Local)).U64(virt).U64(phys).U32(pages).U8(perm).Done()
		if code := k.muxRequest(p, te, req); code != proto.EOK {
			return k.w.Resp(code), false
		}
		return k.w.Resp(proto.EOK), false

	case proto.OpActivityKill:
		sel := cap.Sel(r.U32())
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		ac, err := caller.Caps.GetKind(sel, cap.KindActivity)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		act := ac.Obj.(*ActObj).Entry
		if !act.Exited {
			if te := k.tiles[act.Tile]; te != nil {
				req := k.muxWriter(p, proto.OpMuxKillAct).U16(uint16(act.Local)).Done()
				if code := k.muxRequest(p, te, req); code != proto.EOK {
					return k.w.Resp(code), false
				}
			}
			k.exited(p, act, -1)
		}
		return k.w.Resp(proto.EOK), false

	case proto.OpSetPager:
		actSel := cap.Sel(r.U32())
		sessSel := cap.Sel(r.U32())
		if r.Err() != nil {
			return k.w.Resp(proto.EInvalid), false
		}
		ac, err := caller.Caps.GetKind(actSel, cap.KindActivity)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		sc, err := caller.Caps.GetKind(sessSel, cap.KindSession)
		if err != nil {
			return k.w.Resp(proto.ENoSuchCap), false
		}
		act := ac.Obj.(*ActObj).Entry
		sess := sc.Obj.(*SessObj)
		rg := sess.Srv.RGate
		if !rg.Activated {
			return k.w.Resp(proto.EInvalid), false
		}
		te := k.tiles[act.Tile]
		if te == nil {
			return k.w.Resp(proto.ENoTile), false
		}
		// TileMux's send gate towards the pager, tagged with TileMux's own
		// activity id (paper §4.2).
		ep := te.AllocEp()
		conf := dtu.SendEP(dtu.ActTileMux, rg.Tile, rg.Ep, sess.ID, 1, rg.SlotSize)
		if err := k.configure(p, act.Tile, ep, conf); err != nil {
			return k.w.Resp(proto.EUnreachable), false
		}
		req := k.muxWriter(p, proto.OpMuxSetPager).
			U16(uint16(act.Local)).U32(uint32(ep)).Done()
		if code := k.muxRequest(p, te, req); code != proto.EOK {
			return k.w.Resp(code), false
		}
		return k.w.Resp(proto.EOK), false

	default:
		if resp, deferred, handled := k.remote.Syscall(p, caller, op, r, slot); handled {
			return resp, deferred
		}
		return k.w.Resp(proto.EInvalid), false
	}
}

// activate configures a DTU endpoint for a gate or memory capability on the
// caller's tile. A non-negative hint reuses that endpoint instead of
// allocating a fresh one (gate re-activation, e.g. per-extent memory gates).
func (k *Kernel) activate(p *sim.Proc, caller *ActEntry, sel cap.Sel, hint dtu.EpID) (dtu.EpID, proto.ErrCode) {
	c, err := caller.Caps.Get(sel)
	if err != nil {
		return 0, proto.ENoSuchCap
	}
	te := k.tiles[caller.Tile]
	if te == nil {
		return 0, proto.ENoTile
	}
	allocEp := func() dtu.EpID {
		if hint >= 0 {
			return hint
		}
		return te.AllocEp()
	}
	var conf dtu.Endpoint
	switch c.Kind {
	case cap.KindRecvGate:
		rg := c.Obj.(*RGateObj)
		if rg.Activated {
			return 0, proto.EExists
		}
		ep := allocEp()
		conf = dtu.RecvEP(caller.Local, rg.Slots, rg.SlotSize)
		if err := k.configure(p, caller.Tile, ep, conf); err != nil {
			return 0, proto.EUnreachable
		}
		rg.Activated = true
		rg.Tile = caller.Tile
		rg.Ep = ep
		k.bindings[c] = binding{tile: caller.Tile, ep: ep}
		return ep, proto.EOK
	case cap.KindSendGate:
		sg := c.Obj.(*SGateObj)
		if !sg.RGate.Activated {
			return 0, proto.EInvalid
		}
		ep := allocEp()
		conf = dtu.SendEP(caller.Local, sg.RGate.Tile, sg.RGate.Ep, sg.Label, sg.Credits, sg.RGate.SlotSize)
		if err := k.configure(p, caller.Tile, ep, conf); err != nil {
			return 0, proto.EUnreachable
		}
		k.bindings[c] = binding{tile: caller.Tile, ep: ep}
		return ep, proto.EOK
	case cap.KindMem:
		obj := c.Obj.(*MemObj)
		ep := allocEp()
		conf = dtu.MemEP(caller.Local, obj.Tile, obj.Base+c.Off, c.Size, dtu.Perm(c.Perm))
		if err := k.configure(p, caller.Tile, ep, conf); err != nil {
			return 0, proto.EUnreachable
		}
		k.bindings[c] = binding{tile: caller.Tile, ep: ep}
		return ep, proto.EOK
	default:
		return 0, proto.EWrongKind
	}
}

// configure writes an endpoint on a user tile through the external
// interface; the zero Endpoint invalidates it. It is the controller's only
// endpoint write, so the Remote sees every one.
func (k *Kernel) configure(p *sim.Proc, tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint) error {
	if handled, err := k.remote.Configure(p, tile, ep, conf); handled {
		return err
	}
	return k.d.ConfigureRemote(p, tile, ep, conf)
}

// CreateActivity builds an activity on a tile: kernel records, TileMux
// registration, and the standard syscall endpoints. Exposed for boot-time
// use by the platform; the CreateActivity syscall funnels here too.
func (k *Kernel) CreateActivity(p *sim.Proc, tile noc.TileID, name string) (*ActEntry, error) {
	te := k.tiles[tile]
	if te == nil {
		return nil, proto.ENoTile.Err()
	}
	id := k.nextAct
	k.nextAct++
	act := &ActEntry{
		ID:    id,
		Local: dtu.ActID(id),
		Name:  name,
		Tile:  tile,
		Caps:  cap.NewTable(name),
	}
	k.acts[id] = act
	req := k.muxWriter(p, proto.OpMuxCreateAct).U16(uint16(act.Local)).Str(name).Done()
	if code := k.muxRequest(p, te, req); code != proto.EOK {
		return nil, code.Err()
	}
	// Standard endpoints: a send gate for system calls and a receive gate
	// for their replies.
	act.SyscallSgate = te.AllocEp()
	err := k.configure(p, tile, act.SyscallSgate,
		dtu.SendEP(act.Local, k.d.Tile(), EpSyscall, uint64(id), 1, 512))
	if err != nil {
		return nil, err
	}
	act.SyscallRgate = te.AllocEp()
	err = k.configure(p, tile, act.SyscallRgate, dtu.RecvEP(act.Local, 1, 512))
	if err != nil {
		return nil, err
	}
	return act, nil
}

// StartActivity marks an activity runnable.
func (k *Kernel) StartActivity(p *sim.Proc, act *ActEntry) error {
	te := k.tiles[act.Tile]
	k.remote.Starting(p, act)
	req := k.muxWriter(p, proto.OpMuxStartAct).U16(uint16(act.Local)).Done()
	code := k.muxRequest(p, te, req)
	return code.Err()
}

// GrantTile inserts a tile capability into an activity's table (boot-time).
func (k *Kernel) GrantTile(act *ActEntry, tile noc.TileID) cap.Sel {
	return act.Caps.Insert(cap.KindTile, &TileObj{Tile: tile}).Sel()
}
