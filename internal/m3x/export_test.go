package m3x

import "m3v/internal/dtu"

// SavedEp exposes savedEp to the tests.
func (d *Driver) SavedEp(act uint32, ep dtu.EpID) *dtu.Endpoint { return d.savedEp(act, ep) }

// SavedSet reports the length and capacity of an activity's saved set.
func (d *Driver) SavedSet(act uint32) (n, capacity int) {
	set := d.saved[act]
	return len(set), cap(set)
}
