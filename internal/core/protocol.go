package core

import (
	"repro/internal/cache"
	"repro/internal/netsim"
)

// This file implements the host side of the callback consistency protocol
// (consistency.ModeCallback): small control messages on the host's demand
// link and synchronous flushes of exclusively-held dirty blocks.

// controlMessageBytes is the payload of one protocol control message
// (block identity, lease epoch, flags).
const controlMessageBytes = 64

// Holds implements consistency.CacheHolder.
func (h *Host) Holds(key uint64) bool {
	for _, c := range h.tiers {
		if c.Peek(cache.Key(key)) != nil {
			return true
		}
	}
	return false
}

// AppendResident implements consistency.CacheHolder: every block some
// tier caches, once — bottom tier first, each upper tier adding only the
// blocks no tier below it holds.
func (h *Host) AppendResident(dst []uint64) []uint64 {
	for t := len(h.tiers) - 1; t >= 0; t-- {
	keys:
		for _, k := range h.tiers[t].Keys(nil) {
			for _, below := range h.tiers[t+1:] {
				if below.Peek(k) != nil {
					continue keys
				}
			}
			dst = append(dst, uint64(k))
		}
	}
	return dst
}

// SendControl implements consistency.ProtocolPeer: one small packet on the
// host's demand link.
func (h *Host) SendControl(done func()) {
	h.seg.Send(netsim.ToFiler, controlMessageBytes, done)
}

// FlushBlock implements consistency.ProtocolPeer: write the block back to
// the filer if any tier holds it dirty; done fires when durable. The
// freshest copy is the highest tier's dirty one, and the protocol needs it
// at the filer, so it bypasses any tier below.
func (h *Host) FlushBlock(key uint64, done func()) {
	for t, c := range h.tiers {
		if e := c.Peek(cache.Key(key)); e != nil && e.Dirty {
			h.propagate(moveToFiler, tier(t), e.Key(), e, e.Gen(), demandLane, funcCont(done), 0)
			return
		}
	}
	h.eng.Schedule(0, done)
}
