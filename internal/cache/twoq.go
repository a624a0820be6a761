package cache

import "fmt"

// Segment tags for 2Q entries.
const (
	segA1in uint8 = iota + 2
	segAm
)

// TwoQ implements the 2Q replacement policy (Johnson & Shasha 1994):
// first-touch blocks enter a small FIFO (A1in); blocks re-referenced after
// falling out of A1in — remembered in a ghost queue of keys (A1out) —
// enter the main LRU (Am). One-shot scans wash through A1in without
// displacing the hot set, a property frequently proposed for flash caches.
type TwoQ struct {
	base
	a1inCap int
	medium  Medium
	a1in    list // FIFO
	am      list // LRU

	// The ghost queue is a second index whose entries carry only their
	// keys, most recently evicted at the front.
	ghost  table
	ghosts list
}

// NewTwoQ returns a 2Q cache with A1in sized to a quarter of capacity and
// a ghost queue remembering half a capacity's worth of evicted keys.
func NewTwoQ(capacity int, m Medium) *TwoQ {
	a1 := capacity / 4
	if a1 < 1 && capacity > 0 {
		a1 = 1
	}
	q := &TwoQ{a1inCap: a1, medium: m}
	q.init(capacity)
	q.ghost.init(capacity / 2)
	return q
}

// A1inLen and GhostLen report internal queue sizes (for tests).
func (q *TwoQ) A1inLen() int  { return q.a1in.len }
func (q *TwoQ) GhostLen() int { return q.ghosts.len }

// Get looks up key. Hits in Am promote to MRU; hits in A1in stay put (2Q
// deliberately ignores correlated references inside A1in).
func (q *TwoQ) Get(key Key) *Entry {
	e := q.get(key)
	if e != nil {
		q.Touch(e)
	}
	return e
}

// Touch promotes Am entries; A1in entries stay put.
func (q *TwoQ) Touch(e *Entry) {
	if e.seg == segAm {
		q.tab.moveToFront(&q.am, e)
	}
}

// Victim prefers A1in's FIFO tail when A1in is over quota (or Am is
// empty), otherwise Am's LRU tail.
func (q *TwoQ) Victim() *Entry {
	first, second := &q.a1in, &q.am
	if q.a1in.len <= q.a1inCap && q.am.len != 0 {
		first, second = second, first
	}
	if e := q.tab.lastUnpinned(first); e != nil {
		return e
	}
	return q.tab.lastUnpinned(second)
}

// Insert adds key: to Am if the ghost queue remembers it, else to A1in.
func (q *TwoQ) Insert(key Key) *Entry {
	g := q.ghost.lookup(key)
	l, seg := &q.a1in, segA1in
	if g != nil {
		l, seg = &q.am, segAm
	}
	e := q.insert(key, q.medium, l)
	if e == nil {
		return nil
	}
	e.seg = seg
	if g != nil {
		q.ghostRemove(g)
	}
	return e
}

// Remove evicts e; A1in evictions are remembered in the ghost queue.
func (q *TwoQ) Remove(e *Entry) {
	if e.seg == segAm {
		q.remove(e, &q.am)
		return
	}
	key := e.key
	q.remove(e, &q.a1in)
	q.ghostAdd(key)
}

// ghostAdd remembers key as the most recent A1in eviction, forgetting the
// oldest one when the ghost queue is full.
func (q *TwoQ) ghostAdd(key Key) {
	if q.ghost.capacity == 0 {
		return
	}
	if g := q.ghost.lookup(key); g != nil {
		q.ghostRemove(g)
	}
	if q.ghosts.len == q.ghost.capacity {
		q.ghostRemove(q.ghost.back(&q.ghosts))
	}
	q.ghost.pushFront(&q.ghosts, q.ghost.insert(key, q.medium))
}

func (q *TwoQ) ghostRemove(g *Entry) {
	i := q.ghost.cellOf(g)
	q.ghost.unlink(&q.ghosts, g)
	q.ghost.drop(i, g)
}

// segment returns the list e sits on.
func (q *TwoQ) segment(e *Entry) *list {
	if e.seg == segAm {
		return &q.am
	}
	return &q.a1in
}

// Keys implements BlockCache: Am MRU first, then A1in.
func (q *TwoQ) Keys(dst []Key) []Key {
	return q.tab.appendKeys(&q.a1in, q.tab.appendKeys(&q.am, dst))
}

// CheckInvariants implements BlockCache.
func (q *TwoQ) CheckInvariants() error {
	if err := q.tab.check(&q.dirties, &q.a1in, &q.am); err != nil {
		return err
	}
	for _, l := range []*list{&q.a1in, &q.am} {
		for e := q.tab.front(l); e != nil; e = q.tab.next(l, e) {
			if q.segment(e) != l || e.seg != segA1in && e.seg != segAm {
				return fmt.Errorf("entry %d tagged %d on the wrong segment", e.key, e.seg)
			}
			if q.ghost.lookup(e.key) != nil {
				return fmt.Errorf("resident entry %d also in ghost queue", e.key)
			}
		}
	}
	if err := q.ghost.check(&list{k: dirtyLinks}, &q.ghosts); err != nil {
		return fmt.Errorf("ghost queue: %w", err)
	}
	return nil
}
