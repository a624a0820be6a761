// Package cache provides the LRU block-cache substrate used by every cache
// tier in the simulator: an intrusive doubly-linked LRU list, dirty-block
// tracking on a second intrusive list (so the periodic syncer can flush in
// O(dirty)), and a two-medium unified variant for the paper's "unified"
// architecture.
//
// Every policy finds its blocks through one compact, pointer-free index
// (index.go): an open-addressing table of 8-byte cells, each a 32-bit hash
// tag plus the slot of an entry in the cache's own slab of geometrically
// growing, never-copied pages. Entries link to each other by slot, so the
// garbage collector never scans a cache, and an *Entry stays valid for the
// cache's lifetime.
//
// The package is purely a data structure: it tracks which blocks are
// resident and in what state, but knows nothing about latencies or devices.
// Replacement policy is LRU throughout, as in the paper ("we put aside ...
// cache replacement policy (we use LRU)", §1).
package cache

import "fmt"

// Key identifies a cached block: the simulator packs (file, block offset)
// into a single 64-bit key.
type Key uint64

// Medium identifies the storage medium backing a cache buffer. The plain
// LRU uses a single medium; the unified cache mixes both.
type Medium uint8

// Media.
const (
	RAM Medium = iota
	Flash
)

func (m Medium) String() string {
	switch m {
	case RAM:
		return "ram"
	case Flash:
		return "flash"
	default:
		return fmt.Sprintf("medium(%d)", uint8(m))
	}
}

// Entry is a resident cache block. Entries are owned by their cache and
// must not be retained after removal. An Entry holds no pointers: its list
// links are slots in its cache's entry slab.
type Entry struct {
	key Key

	// DirtyEpoch increments on every application write; an asynchronous
	// writeback captures the epoch when it starts so its completion can
	// tell whether the block was re-dirtied in flight.
	DirtyEpoch uint64

	// gen counts how many times this Entry struct has been removed from
	// its cache. Entries are recycled through a per-cache free list, so a
	// retained pointer alone no longer proves identity: code that holds
	// an entry across an asynchronous boundary must capture Gen() at a
	// point of known validity and re-check it (together with the index
	// lookup) before trusting the pointer.
	gen uint64

	links [2]link // recency (or segment) list and dirty list
	slot  int32   // this entry's slot in its cache's slab

	medium Medium
	// Dirty marks data newer than the next tier down.
	Dirty bool
	// WritebackInFlight marks an asynchronous writeback issued but not yet
	// completed; a re-dirty during flight must trigger another writeback.
	WritebackInFlight bool
	// Pinned blocks cannot be chosen as eviction victims (e.g. a block
	// whose fill from the filer has not completed).
	Pinned bool
	// Referenced is CLOCK's second-chance bit.
	Referenced bool
	// seg records which internal segment of a multi-queue policy (SLRU,
	// 2Q) the entry currently occupies.
	seg     uint8
	inDirty bool
}

// link is an entry's place on one list: its neighbours' slots, 0 at the
// ends.
type link struct{ prev, next int32 }

// Key returns the entry's block key.
func (e *Entry) Key() Key { return e.key }

// Medium returns the medium backing this entry's buffer.
func (e *Entry) Medium() Medium { return e.medium }

// Gen returns the entry's reuse generation; it increments every time the
// entry is removed from its cache. (pointer, Gen) pairs identify a logical
// residency the way bare pointers did before entries were pooled.
func (e *Entry) Gen() uint64 { return e.gen }

// base is the state every policy shares: the index with its entries, the
// dirty list, the residency hook and the counters. Policies embed it and
// keep their own recency lists.
type base struct {
	tab     table
	dirties list // threads the dirty links

	// resHook, when set, observes every residency transition: called with
	// (key, true) as Insert indexes the block and (key, false) as Remove
	// drops it. Multi-host runs use it to maintain a block→holders index
	// so invalidation only visits hosts that actually hold a copy.
	resHook func(Key, bool)

	// Statistics.
	hits, misses, evictions uint64
}

func (b *base) init(capacity int) {
	b.tab.init(capacity)
	b.dirties = list{k: dirtyLinks}
}

// Capacity returns the maximum number of resident blocks.
func (b *base) Capacity() int { return b.tab.capacity }

// Len returns the number of resident blocks.
func (b *base) Len() int { return b.tab.n }

// NeedsEviction reports whether inserting one more block requires a victim.
func (b *base) NeedsEviction() bool { return b.tab.n >= b.tab.capacity }

// DirtyLen returns the number of dirty resident blocks.
func (b *base) DirtyLen() int { return b.dirties.len }

// SetResidencyHook registers fn to observe every block entering (added
// true) and leaving (added false) this cache. Set once, before any
// inserts; a nil hook (the default) costs nothing on the hot paths.
func (b *base) SetResidencyHook(fn func(Key, bool)) { b.resHook = fn }

// Hits and Misses report Get outcomes; Evictions reports victims removed.
func (b *base) Hits() uint64      { return b.hits }
func (b *base) Misses() uint64    { return b.misses }
func (b *base) Evictions() uint64 { return b.evictions }

// Peek looks up key without promoting or counting.
func (b *base) Peek(key Key) *Entry { return b.tab.lookup(key) }

// get looks up key, counting the outcome.
func (b *base) get(key Key) *Entry {
	e := b.tab.lookup(key)
	if e == nil {
		b.misses++
	} else {
		b.hits++
	}
	return e
}

// insert indexes key on medium m at the MRU end of l. The caller must
// have made room: insert panics if the cache is full or key is present.
// Zero-capacity caches ignore the insert and return nil.
func (b *base) insert(key Key, m Medium, l *list) *Entry {
	if b.tab.capacity == 0 {
		return nil
	}
	if b.NeedsEviction() {
		panic("cache: insert into full cache")
	}
	e := b.tab.insert(key, m)
	b.tab.pushFront(l, e)
	if b.resHook != nil {
		b.resHook(key, true)
	}
	return e
}

// remove evicts e, which sits on l, clearing its dirty state.
func (b *base) remove(e *Entry, l *list) {
	i := b.tab.cellOf(e)
	if e.inDirty {
		b.tab.unlink(&b.dirties, e)
		e.inDirty = false
		e.Dirty = false
	}
	b.tab.unlink(l, e)
	b.tab.drop(i, e)
	b.evictions++
	if b.resHook != nil {
		b.resHook(e.key, false)
	}
}

// MarkDirty flags e dirty and places it on the dirty list.
func (b *base) MarkDirty(e *Entry) {
	if !e.inDirty {
		b.tab.pushFront(&b.dirties, e)
		e.inDirty = true
	}
	e.Dirty = true
}

// MarkClean clears e's dirty flag and removes it from the dirty list.
func (b *base) MarkClean(e *Entry) {
	if e.inDirty {
		b.tab.unlink(&b.dirties, e)
		e.inDirty = false
	}
	e.Dirty = false
}

// AppendDirty appends all dirty entries, oldest first, to dst and returns
// it. The returned entries remain owned by the cache.
func (b *base) AppendDirty(dst []*Entry) []*Entry {
	for e := b.tab.back(&b.dirties); e != nil; e = b.tab.prev(&b.dirties, e) {
		dst = append(dst, e)
	}
	return dst
}

// LRU is a fixed-capacity single-medium LRU cache of blocks.
type LRU struct {
	base
	medium Medium
	lru    list
}

// NewLRU returns an LRU cache holding at most capacity blocks on medium m.
// A zero capacity cache is valid and caches nothing.
func NewLRU(capacity int, m Medium) *LRU {
	c := &LRU{}
	c.initLRU(capacity, m)
	return c
}

// initLRU initialises the cache in place; embedding types initialise
// through this method.
func (c *LRU) initLRU(capacity int, m Medium) {
	c.init(capacity)
	c.medium = m
}

// Medium returns the cache's storage medium.
func (c *LRU) Medium() Medium { return c.medium }

// Get looks up key, promoting it to MRU on hit and counting the outcome.
func (c *LRU) Get(key Key) *Entry {
	e := c.get(key)
	if e != nil {
		c.tab.moveToFront(&c.lru, e)
	}
	return e
}

// Touch promotes an entry to MRU without counting a hit.
func (c *LRU) Touch(e *Entry) { c.tab.moveToFront(&c.lru, e) }

// Victim returns the least recently used unpinned entry, or nil if none
// exists. It does not remove the entry: callers that must write back a
// dirty victim do so first, then call Remove.
func (c *LRU) Victim() *Entry { return c.tab.lastUnpinned(&c.lru) }

// Insert adds key at MRU. The caller must have made room: Insert panics if
// the cache is full (use Victim/Remove first) or if key is present.
// Zero-capacity caches ignore the insert and return nil.
func (c *LRU) Insert(key Key) *Entry { return c.insert(key, c.medium, &c.lru) }

// Remove evicts e from the cache. Dirty state is the caller's problem: the
// cache only maintains the bookkeeping.
func (c *LRU) Remove(e *Entry) { c.remove(e, &c.lru) }

// OldestDirty returns the least recently dirtied entry, or nil.
func (c *LRU) OldestDirty() *Entry { return c.tab.back(&c.dirties) }

// Keys appends all resident keys, MRU first, to dst and returns it.
func (c *LRU) Keys(dst []Key) []Key { return c.tab.appendKeys(&c.lru, dst) }

// CheckInvariants verifies internal consistency; tests call this after
// random operation sequences.
func (c *LRU) CheckInvariants() error { return c.tab.check(&c.dirties, &c.lru) }
