// Package rpcpair holds the paper's no-op RPC workload, each program written
// once: Figure 6's client/server pair (§6.2) and its co-located M³x variant,
// Figure 9's situation of a client and a server sharing one tile. The fig6
// and ablation experiments, m3vsim, the chaos scenarios and the core and
// m3x tests all run these programs.
//
// The package imports nothing above internal/activity, so package core's own
// tests can use it. A root program therefore takes its tile selectors
// (core.TileSels) as an argument.
package rpcpair

import (
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// Pair is Figure 6's no-op RPC pair: a client spawns an echo server on the
// Server tile, waits for the send gate the server delegates to it, and makes
// Calls calls. The pair is tile-local if Server is the client's own tile.
type Pair struct {
	Server noc.TileID
	Calls  int

	// Start is when the client made its first call, Done the completion
	// time of each call; Done is short if the run ended early.
	Start sim.Time
	Done  []sim.Time
	// Served counts the requests the server answered.
	Served int

	sgate cap.Sel // the delegated send gate; selectors start at 1
}

// Client is the client's program; tiles are its tile selectors.
func (p *Pair) Client(a *activity.Activity, tiles map[noc.TileID]cap.Sel) {
	client := a.ID
	_, err := a.Spawn(tiles[p.Server], p.Server, "server", nil,
		func(s *activity.Activity) { p.server(s, client) })
	if err != nil {
		panic(fmt.Errorf("spawn: %w", err))
	}
	for p.sgate == 0 {
		a.Compute(1000)
		a.Yield()
	}
	sgEp, err := a.SysActivate(p.sgate)
	if err != nil {
		panic(fmt.Errorf("activate: %w", err))
	}
	_, rgEp := rgate(a, 1, 64)
	p.Start = a.Now()
	for i := 0; i < p.Calls; i++ {
		if _, err := a.Call(sgEp, rgEp, []byte{byte(i)}); err != nil {
			panic(fmt.Errorf("call %d: %w", i, err))
		}
		p.Done = append(p.Done, a.Now())
	}
}

// server creates the receive gate, delegates a send gate to the client and
// answers p.Calls requests.
func (p *Pair) server(a *activity.Activity, client uint32) {
	rgSel, rgEp := rgate(a, 1, 64)
	sgSel, err := a.SysCreateSGate(rgSel, 0, 1)
	if err != nil {
		panic(err)
	}
	delegated, err := a.SysDelegate(client, sgSel)
	if err != nil {
		panic(err)
	}
	p.sgate = delegated
	for i := 0; i < p.Calls; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{byte(i)}, 0); err != nil {
			panic(fmt.Errorf("rpc server reply: %w", err))
		}
		p.Served++
	}
}

// PerCall is the mean time of a call after the first warmup calls, or 0 if
// the client did not finish.
func (p *Pair) PerCall(warmup int) sim.Time {
	if len(p.Done) < p.Calls {
		return 0
	}
	from := p.Start
	if warmup > 0 {
		from = p.Done[warmup-1]
	}
	return (p.Done[p.Calls-1] - from) / sim.Time(p.Calls-warmup)
}

// Colocated is the pair with client and server on one tile, run by a root on
// another: the root spawns the server on Tile, then the client there, and
// delegates the server's send gate to the client. On M³x every call and
// every reply reaches a switched-out recipient through the controller's
// forward slow path.
type Colocated struct {
	Tile  noc.TileID
	Calls int
	// Running, if set, is called by the server after it fetched a request
	// and by the client after it got a reply, with the endpoints in use.
	Running func(a *activity.Activity, eps ...dtu.EpID)

	// Replies counts the replies that echoed their request.
	Replies int

	rootSgate, cliSgate cap.Sel // the delegated send gates; selectors start at 1
}

// Root is the root's program; tiles are its tile selectors. It returns once
// client and server exited.
func (c *Colocated) Root(a *activity.Activity, tiles map[noc.TileID]cap.Sel) {
	root := a.ID
	srv, err := a.Spawn(tiles[c.Tile], c.Tile, "server", nil,
		func(s *activity.Activity) { c.server(s, root) })
	if err != nil {
		panic(fmt.Errorf("spawn server: %w", err))
	}
	for c.rootSgate == 0 {
		a.Compute(1000)
		a.Yield()
	}
	cli, err := a.Spawn(tiles[c.Tile], c.Tile, "client", nil, c.client)
	if err != nil {
		panic(fmt.Errorf("spawn client: %w", err))
	}
	sel, err := a.SysDelegate(cli.ID, c.rootSgate)
	if err != nil {
		panic(fmt.Errorf("delegate to client: %w", err))
	}
	c.cliSgate = sel
	for _, ref := range []activity.ChildRef{cli, srv} {
		if _, err := a.SysWait(ref.ActSel); err != nil {
			panic(fmt.Errorf("wait: %w", err))
		}
	}
}

// server creates the receive gate, delegates a send gate to the root and
// echoes c.Calls requests.
func (c *Colocated) server(a *activity.Activity, root uint32) {
	rgSel, rgEp := rgate(a, 4, 128)
	sgSel, err := a.SysCreateSGate(rgSel, 0xAB, 2)
	if err != nil {
		panic(err)
	}
	sel, err := a.SysDelegate(root, sgSel)
	if err != nil {
		panic(err)
	}
	c.rootSgate = sel
	for i := 0; i < c.Calls; i++ {
		slot, msg := a.Recv(rgEp)
		if c.Running != nil {
			c.Running(a, rgEp)
		}
		if err := a.ReplyMsg(rgEp, slot, msg, append([]byte("re:"), msg.Data...), 0); err != nil {
			panic(err)
		}
	}
}

// client waits for the delegated send gate and makes c.Calls calls.
func (c *Colocated) client(a *activity.Activity) {
	for c.cliSgate == 0 {
		a.Compute(1000)
		a.Yield()
	}
	_, rgEp := rgate(a, 2, 128)
	sgEp, err := a.SysActivate(c.cliSgate)
	if err != nil {
		panic(err)
	}
	for i := 0; i < c.Calls; i++ {
		resp, err := a.Call(sgEp, rgEp, []byte{byte(i)})
		if err != nil {
			panic(err)
		}
		if c.Running != nil {
			c.Running(a, rgEp, sgEp)
		}
		if len(resp) == 4 && resp[3] == byte(i) {
			c.Replies++
		}
	}
}

// rgate creates a receive gate of slots slots of size bytes and activates
// it.
func rgate(a *activity.Activity, slots, size int) (cap.Sel, dtu.EpID) {
	sel, err := a.SysCreateRGate(slots, size)
	if err != nil {
		panic(err)
	}
	ep, err := a.SysActivate(sel)
	if err != nil {
		panic(err)
	}
	return sel, ep
}
