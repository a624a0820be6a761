package cache

import (
	"fmt"
	"math/bits"
)

// table is the cache index every policy shares: it maps a block key to its
// resident Entry and owns the entries themselves. The garbage collector
// scans none of it.
//
// The index is an open-addressing table of 8-byte cells, presized from the
// cache's capacity so that it is at most three quarters full and never
// grows. A cell carries the top 32 bits of its key's Fibonacci hash (the
// tag) and the entry's slot. Lookups probe linearly from the key's home
// cell (the tag's top bits) and read an entry only on a tag match;
// deletes shift later cells of the probe run back, so there are no
// tombstones, and they recompute homes from the tags alone.
//
// Entries live in a slab of pages that grow geometrically (8, 16, 32, ...
// entries, the last one cut to the capacity). Pages are never copied, so
// an *Entry stays valid for the cache's lifetime; removed entries recycle
// through a free list, and Gen tells a reused entry from its earlier
// residency. Entries link to each other by slot, so they hold no pointers.
type table struct {
	cells []cell // power-of-two table; a cell is free when slot is 0
	shift uint   // 64 - log2(len(cells))
	n     int    // occupied cells

	capacity int       // slots the slab may hand out
	pages    [][]Entry // page p holds slots 8<<p - 7 .. 16<<p - 8
	used     int32     // slots handed out so far
	free     int32     // head of the free-slot list, threaded through links[0].next
}

// cell is one resident key: its hash tag and its entry's slot.
type cell struct {
	tag  uint32 // top 32 bits of the key's Fibonacci hash
	slot int32  // the entry's slot (slots count from 1); 0 marks a free cell
}

// fibonacci is 2^64 divided by the golden ratio, the multiplier of the
// Fibonacci hash.
const fibonacci = 0x9e3779b97f4a7c15

// tagOf returns key's hash tag.
func tagOf(key Key) uint32 { return uint32(uint64(key) * fibonacci >> 32) }

// Link indexes into Entry.links: every list threads one of the two.
const (
	lruLinks   = 0 // the policy's recency (or segment) lists
	dirtyLinks = 1 // the dirty list
)

// init lays out an empty table for capacity entries.
func (t *table) init(capacity int) {
	if capacity < 0 {
		panic("cache: negative capacity")
	}
	if capacity > 1<<30 {
		panic("cache: capacity exceeds the index's slot range")
	}
	size := 1
	for 3*size < 4*capacity {
		size *= 2
	}
	*t = table{
		cells:    make([]cell, size),
		shift:    uint(64 - bits.TrailingZeros(uint(size))),
		capacity: capacity,
	}
}

// home returns the home cell of a key with tag tag.
func (t *table) home(tag uint32) int { return int(uint64(tag) << 32 >> t.shift) }

// at returns the entry in slot s, or nil for slot 0.
func (t *table) at(s int32) *Entry {
	if s == 0 {
		return nil
	}
	return t.entry(s)
}

// entry returns the entry in slot s, which must not be 0.
func (t *table) entry(s int32) *Entry {
	u := uint32(s) + 7
	hb := bits.Len32(u) - 1
	return &t.pages[hb-3][u-1<<hb]
}

// find returns the cell holding key and its entry, or else the free cell
// ending key's probe run (where an insert of key belongs) and nil.
func (t *table) find(key Key) (int, *Entry) {
	tag := tagOf(key)
	mask := len(t.cells) - 1
	for i := t.home(tag); ; i = (i + 1) & mask {
		c := t.cells[i]
		if c.slot == 0 {
			return i, nil
		}
		if c.tag == tag {
			if e := t.entry(c.slot); e.key == key {
				return i, e
			}
		}
	}
}

// lookup returns key's resident entry, or nil.
func (t *table) lookup(key Key) *Entry {
	_, e := t.find(key)
	return e
}

// insert indexes a fresh entry for key on medium m and returns it. It
// panics if key is already resident.
func (t *table) insert(key Key, m Medium) *Entry {
	i, cur := t.find(key)
	if cur != nil {
		panic(fmt.Sprintf("cache: duplicate insert of key %d", key))
	}
	e := t.alloc()
	*e = Entry{key: key, medium: m, gen: e.gen, slot: e.slot}
	t.cells[i] = cell{tag: tagOf(key), slot: e.slot}
	t.n++
	return e
}

// cellOf returns the cell indexing e. It panics unless e is the entry
// resident for its key.
func (t *table) cellOf(e *Entry) int {
	i, cur := t.find(e.key)
	if cur != e {
		panic("cache: removing entry not in cache")
	}
	return i
}

// drop frees cell i, which indexes e, and recycles e's slot, bumping its
// generation. Later cells of the probe run shift back so every key stays
// reachable from its home cell.
func (t *table) drop(i int, e *Entry) {
	mask := len(t.cells) - 1
	for j := (i + 1) & mask; t.cells[j].slot != 0; j = (j + 1) & mask {
		// Cell j may fill the hole at i unless its home lies cyclically
		// in (i, j].
		if (j-t.home(t.cells[j].tag))&mask >= (j-i)&mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = cell{}
	t.n--
	e.gen++
	e.links[lruLinks].next = t.free
	t.free = e.slot
}

// alloc returns a free slot's entry, recycled or new; a new page is
// allocated when the slab runs out. Callers never index more entries than
// the capacity, so a new slot always fits it.
func (t *table) alloc() *Entry {
	if t.free != 0 {
		e := t.entry(t.free)
		t.free = e.links[lruLinks].next
		return e
	}
	t.used++
	if p := len(t.pages); int(t.used) > 8<<p-8 {
		start := 8<<p - 8
		t.pages = append(t.pages, make([]Entry, min(8<<p, t.capacity-start)))
	}
	e := t.entry(t.used)
	e.slot = t.used
	return e
}

// list is an intrusive doubly-linked list of entries threaded through one
// of their link pairs by slot. The zero value is an empty list on the
// recency links.
type list struct {
	head, tail int32 // MRU and LRU ends; 0 when empty
	len        int
	k          uint8 // which of an entry's links this list threads
}

// pushFront inserts e at l's MRU end.
func (t *table) pushFront(l *list, e *Entry) {
	lk := &e.links[l.k]
	lk.prev, lk.next = 0, l.head
	if l.head == 0 {
		l.tail = e.slot
	} else {
		t.entry(l.head).links[l.k].prev = e.slot
	}
	l.head = e.slot
	l.len++
}

// unlink removes e from l.
func (t *table) unlink(l *list, e *Entry) {
	lk := &e.links[l.k]
	if lk.prev == 0 {
		l.head = lk.next
	} else {
		t.entry(lk.prev).links[l.k].next = lk.next
	}
	if lk.next == 0 {
		l.tail = lk.prev
	} else {
		t.entry(lk.next).links[l.k].prev = lk.prev
	}
	lk.prev, lk.next = 0, 0
	l.len--
}

// moveToFront makes e, already on l, its MRU entry.
func (t *table) moveToFront(l *list, e *Entry) {
	if l.head == e.slot {
		return
	}
	// e is not the head, so it has a predecessor and the list a head.
	lk := &e.links[l.k]
	t.entry(lk.prev).links[l.k].next = lk.next
	if lk.next == 0 {
		l.tail = lk.prev
	} else {
		t.entry(lk.next).links[l.k].prev = lk.prev
	}
	t.entry(l.head).links[l.k].prev = e.slot
	lk.prev, lk.next = 0, l.head
	l.head = e.slot
}

// front and back return l's MRU and LRU entries, or nil when l is empty;
// next and prev step from e towards the LRU and MRU ends.
func (t *table) front(l *list) *Entry          { return t.at(l.head) }
func (t *table) back(l *list) *Entry           { return t.at(l.tail) }
func (t *table) next(l *list, e *Entry) *Entry { return t.at(e.links[l.k].next) }
func (t *table) prev(l *list, e *Entry) *Entry { return t.at(e.links[l.k].prev) }

// appendKeys appends l's keys, MRU first, to dst.
func (t *table) appendKeys(l *list, dst []Key) []Key {
	for e := t.front(l); e != nil; e = t.next(l, e) {
		dst = append(dst, e.key)
	}
	return dst
}

// lastUnpinned returns l's least recently used unpinned entry, or nil.
func (t *table) lastUnpinned(l *list) *Entry {
	for e := t.back(l); e != nil; e = t.prev(l, e) {
		if !e.Pinned {
			return e
		}
	}
	return nil
}

// check verifies the index against the resident lists in both
// directions, which together must hold every resident entry: each
// occupied cell's tag matches its entry's key, is reachable from the
// key's home and points at an entry linked into one of the lists, and
// each listed entry is the one indexed for its key. It also checks that
// the dirty list holds exactly the entries flagged dirty.
func (t *table) check(dirties *list, lists ...*list) error {
	occupied := 0
	for i, c := range t.cells {
		if c.slot == 0 {
			continue
		}
		occupied++
		e := t.entry(c.slot)
		switch {
		case e.slot != c.slot:
			return fmt.Errorf("cell %d points at slot %d, whose entry records slot %d", i, c.slot, e.slot)
		case c.tag != tagOf(e.key):
			return fmt.Errorf("cell %d tag %#x does not match key %d", i, c.tag, e.key)
		case !t.linked(e, lists):
			return fmt.Errorf("indexed entry %d is on no list", e.key)
		}
		if j, _ := t.find(e.key); j != i {
			return fmt.Errorf("key %d in cell %d is unreachable from its home", e.key, i)
		}
	}
	listed, dirty := 0, 0
	for _, l := range lists {
		n := 0
		for e := t.front(l); e != nil; e = t.next(l, e) {
			if t.lookup(e.key) != e {
				return fmt.Errorf("entry %d on list but not indexed", e.key)
			}
			if e.Dirty != e.inDirty {
				return fmt.Errorf("entry %d dirty flag %v but inDirty %v", e.key, e.Dirty, e.inDirty)
			}
			if e.Dirty {
				dirty++
			}
			if n++; n > l.len {
				return fmt.Errorf("list longer than its recorded length %d", l.len)
			}
		}
		if n != l.len {
			return fmt.Errorf("walked %d entries, recorded %d", n, l.len)
		}
		listed += n
	}
	if occupied != t.n || occupied != listed {
		return fmt.Errorf("index holds %d cells (recorded %d), lists %d entries", occupied, t.n, listed)
	}
	if listed > t.capacity {
		return fmt.Errorf("population %d over capacity %d", listed, t.capacity)
	}
	if dirty != dirties.len {
		return fmt.Errorf("dirty flags %d != dirty list %d", dirty, dirties.len)
	}
	return nil
}

// linked reports whether e's recency links tie it into one of lists: each
// neighbour links back to it, or it is that end of the list.
func (t *table) linked(e *Entry, lists []*list) bool {
	lk := e.links[lruLinks]
	prevOK := lk.prev != 0 && t.entry(lk.prev).links[lruLinks].next == e.slot
	nextOK := lk.next != 0 && t.entry(lk.next).links[lruLinks].prev == e.slot
	for _, l := range lists {
		if (prevOK || lk.prev == 0 && l.head == e.slot) && (nextOK || lk.next == 0 && l.tail == e.slot) {
			return true
		}
	}
	return false
}
