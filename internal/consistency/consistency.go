// Package consistency implements the paper's cache-consistency measurement
// (§3.8): "The simulator invalidates stale copies of blocks instantly
// (using global knowledge) when a new version is first written into a
// cache. This exposes the overhead caused when these blocks must be fetched
// again later. However, we only count invalidations; we do not model the
// overhead of cache consistency traffic."
package consistency

// CacheHolder is a host cache stack that can report and drop copies of a
// block. Invalidation is instantaneous and free, per the paper's model.
type CacheHolder interface {
	// HostID identifies the holder.
	HostID() int
	// Invalidate drops any copy of the block, returning true if one or
	// more copies were dropped.
	Invalidate(key uint64) bool
	// Holds reports whether the holder currently caches the block.
	Holds(key uint64) bool
	// AppendResident appends every block the holder caches to dst.
	AppendResident(dst []uint64) []uint64
}

// Registry tracks all host caches and counts invalidation traffic.
type Registry struct {
	holders []CacheHolder
	index   HolderIndex    // block -> holders, bit i is holders[i]
	peers   []ProtocolPeer // by host ID
	scratch []int32        // holder snapshot reused by BlockWritten

	collect bool // gated by the driver's warmup logic
	mode    Mode

	blocksWritten      uint64 // application-level block writes observed
	writesInvalidating uint64 // writes that invalidated >= 1 remote copy
	invalidations      uint64 // total remote copies dropped

	// Callback-protocol state (ModeCallback only).
	owner             map[uint64]int
	controlMessages   uint64
	ownershipAcquires uint64
	downgrades        uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a host cache stack and returns the callback through which
// it must report every any-tier residency transition (see
// HolderIndex.Add). Register every host before any reports residency.
func (r *Registry) Register(h CacheHolder) func(key uint64, held bool) {
	r.holders = append(r.holders, h)
	if p, ok := h.(ProtocolPeer); ok && h.HostID() >= 0 {
		for len(r.peers) <= h.HostID() {
			r.peers = append(r.peers, nil)
		}
		r.peers[h.HostID()] = p
	}
	return r.index.Add()
}

// CheckResidency verifies that the registry's holder index lists exactly
// the blocks each registered host caches.
func (r *Registry) CheckResidency() error { return r.index.Check(r.holders) }

// SetCollect enables or disables statistics collection (warmup gating).
func (r *Registry) SetCollect(on bool) { r.collect = on }

// BlockWritten must be called when writerHost commits a new version of key
// into its cache. All other hosts' copies are dropped instantly, visiting
// only the hosts the index lists, in registration order.
func (r *Registry) BlockWritten(writerHost int, key uint64) {
	if r.collect {
		r.blocksWritten++
	}
	dropped := false
	r.scratch = r.index.AppendHolders(r.scratch[:0], key)
	for _, i := range r.scratch {
		h := r.holders[i]
		if h.HostID() == writerHost {
			continue
		}
		if h.Invalidate(key) {
			dropped = true
			if r.collect {
				r.invalidations++
			}
		}
	}
	if dropped && r.collect {
		r.writesInvalidating++
	}
}

// BlocksWritten returns the number of application block writes observed
// while collecting.
func (r *Registry) BlocksWritten() uint64 { return r.blocksWritten }

// Invalidations returns the total remote copies dropped while collecting.
func (r *Registry) Invalidations() uint64 { return r.invalidations }

// WritesInvalidating returns how many writes dropped at least one remote
// copy.
func (r *Registry) WritesInvalidating() uint64 { return r.writesInvalidating }

// InvalidationFraction returns writes-requiring-invalidation as a fraction
// of all block writes, the paper's Figure 11/12 metric.
func (r *Registry) InvalidationFraction() float64 {
	if r.blocksWritten == 0 {
		return 0
	}
	return float64(r.writesInvalidating) / float64(r.blocksWritten)
}
