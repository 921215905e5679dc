package dtu

import (
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// This file implements the external interface: endpoint configuration by the
// controller (paper §3.4). Only the controller holds the ability to send
// external requests, which is what makes communication-channel establishment
// a controller privilege. The controller configures its own DTU directly
// (ConfigureLocal) and remote DTUs via NoC requests (ConfigureRemote). The
// zero Endpoint is the invalidation: configuring it clears the endpoint,
// dropping any messages a receive endpoint buffered, and in-flight senders
// see ErrNoRecipient.

// extReqBytes approximates the wire size of one endpoint configuration.
const extReqBytes = 32

// ConfigureLocal installs an endpoint configuration on this DTU without NoC
// traffic. Used by the controller for its own DTU and by the platform setup.
// The first endpoint of a valid kind configured into a block of the
// register file allocates the block; an invalidation of an endpoint whose
// block was never configured has nothing to clear.
func (d *DTU) ConfigureLocal(ep EpID, conf Endpoint) error {
	if ep < 0 || int(ep) >= NumEPs {
		return ErrInvalidArgs
	}
	if conf.Kind == EpReceive && conf.slots == nil {
		conf.slots = make([]recvSlot, conf.Slots)
	}
	blk := d.eps[ep/epBlock]
	if blk == nil {
		if conf.Kind == EpInvalid {
			return nil
		}
		blk = new([epBlock]Endpoint)
		d.eps[ep/epBlock] = blk
	}
	blk[ep%epBlock] = conf
	return nil
}

// ConfigureRemote sends an external configuration request to the DTU on the
// given tile and blocks until it is acknowledged. Must be called from the
// controller's process. Like every external request, it fails with
// ErrXferTimeout if the NoC drops the request or its answer for good.
func (d *DTU) ConfigureRemote(p *sim.Proc, tile noc.TileID, ep EpID, conf Endpoint) error {
	c := d.acquireCmd(opConfig, tile, extReqBytes)
	c.ep, c.conf = ep, conf
	err := c.await(p)
	d.releaseCmd(c)
	return err
}

// ReadEpsRemote reads the endpoint registers [first, first+count) of a
// remote DTU into buf, reusing its capacity, and returns the filled slice.
// Only the part of the window inside the register file is read, so a
// window that misses it yields no endpoints. The registers are
// snapshotted when the request reaches the remote DTU. The M³x controller
// uses this to save DTU state during a remote context switch.
func (d *DTU) ReadEpsRemote(p *sim.Proc, tile noc.TileID, first, count int, buf []Endpoint) ([]Endpoint, error) {
	c := d.acquireCmd(opReadEps, tile, extReqBytes)
	c.first, c.count, c.eps = first, count, buf[:0]
	err := c.await(p)
	eps := c.eps
	d.releaseCmd(c)
	return eps, err
}

// WriteEpsRemote bulk-writes endpoint state to a remote DTU. The M³x
// controller uses it to restore an activity's saved DTU state during a
// remote context switch; the transfer size models the real cost.
func (d *DTU) WriteEpsRemote(p *sim.Proc, tile noc.TileID, eps []EpConf) error {
	size := extReqBytes * len(eps)
	for _, ec := range eps {
		// Buffered messages travel with the state.
		for i := range ec.Conf.slots {
			if ec.Conf.occupied&(1<<uint(i)) != 0 {
				size += headerBytes + len(ec.Conf.slots[i].msg.Data)
			}
		}
	}
	c := d.acquireCmd(opWriteEps, tile, size)
	c.confs = eps
	err := c.await(p)
	d.releaseCmd(c)
	return err
}

// SetCurAct initializes CUR_ACT during platform boot (before TileMux runs).
// It is not part of any hardware interface.
func (d *DTU) SetCurAct(act ActID) { d.curAct = act }

// ResetCur installs a current activity together with its unread-message
// count. The M³x RCTMux uses it after a restore, where the count is
// recomputed from the restored receive endpoints.
func (d *DTU) ResetCur(act ActID, msgs int) {
	d.curAct = act
	d.curMsgs = msgs
}

// UnreadOf sums the unread messages across all receive endpoints owned by
// the given activity (RCTMux restore path).
func (d *DTU) UnreadOf(act ActID) int {
	n := 0
	for _, blk := range d.eps {
		if blk == nil {
			continue
		}
		for i := range blk {
			if e := &blk[i]; e.Kind == EpReceive && e.Act == act {
				n += e.UnreadCount()
			}
		}
	}
	return n
}
