package consistency

import (
	"fmt"
	"math/bits"
)

// HolderIndex maps a block key to the set of holders caching it in any
// tier. Holders report every residency transition through the callback
// Add returns, so the index is exact at every instant and invalidation
// visits only the holders that actually have the block, instead of
// probing every one. The registry keeps one index over all registered
// hosts; each cluster shard keeps one over its shard-local hosts.
//
// A holder set is a bitmap with bit i for the i-th added holder, so
// AppendHolders yields holders in ascending addition order: the order the
// probe-every-host loops it replaced visited them in. Each key held
// anywhere owns one cell of a pointer-free open-addressing table (probed
// linearly from a Fibonacci hash, deleted by backward shift, so no
// tombstones) that carries the bitmap's first word inline: with up to 64
// holders a residency report touches that one cell. Wider bitmaps keep
// their remaining words in a slot of fixed-size pages that are never
// copied, recycled through a free list threaded through the slots. The
// garbage collector scans none of it.
//
// The zero value is an empty index, ready for Add. An index is not safe
// for concurrent use.
type HolderIndex struct {
	holders int          // holders added; bit i of a set is holder i
	cells   []holderCell // power-of-two table; a cell is free when count is 0
	n       int          // occupied cells
	shift   uint         // 64 - log2(len(cells))

	// Bitmap words beyond the first, for more than 64 holders.
	stride int        // words per slot; 0 while holders fit one word
	pshift uint       // log2 of the slots per page
	pages  [][]uint64 // slot storage
	used   int32      // slots handed out so far
	free   int32      // 1 + head of the free-slot list; 0 when empty
}

// holderCell is one key's entry: its holder count, the first bitmap word
// (holders 0..63) and, for wider bitmaps, the slot holding the rest.
type holderCell struct {
	key   uint64
	bits  uint64
	count int32
	slot  int32
}

const (
	minCells  = 64   // table size at the first residency report
	pageWords = 4096 // target page size in words (32 KiB)
)

// Add registers the next holder and returns the callback through which it
// reports residency: fn(key, true) when a block becomes resident in any
// of its tiers, fn(key, false) when the last copy leaves. Every holder
// must be added before any residency is reported, because the set width
// is fixed by the first report.
func (x *HolderIndex) Add() func(key uint64, held bool) {
	if x.cells != nil {
		panic("consistency: holder added after residency was reported")
	}
	i := x.holders
	x.holders++
	return func(key uint64, held bool) { x.update(key, i, held) }
}

// update records that holder now holds (or no longer holds) key.
func (x *HolderIndex) update(key uint64, holder int, held bool) {
	b := uint64(1) << (holder & 63)
	if held {
		if 4*(x.n+1) > 3*len(x.cells) {
			x.grow()
		}
		i, ok := x.find(key)
		c := &x.cells[i]
		if !ok {
			*c = holderCell{key: key}
			if x.stride > 0 {
				c.slot = x.alloc()
			}
			x.n++
		}
		if w := x.word(c, holder); *w&b == 0 {
			*w |= b
			c.count++
		}
		return
	}
	i, ok := x.find(key)
	if !ok {
		return
	}
	c := &x.cells[i]
	w := x.word(c, holder)
	if *w&b == 0 {
		return
	}
	*w &^= b
	if c.count--; c.count == 0 {
		if x.stride > 0 {
			x.release(c.slot)
		}
		x.remove(i)
	}
}

// AppendHolders appends the holders of key to dst in ascending order.
// Callers that drop copies while walking the result must walk a snapshot
// like this one: the drops report back and mutate the set.
func (x *HolderIndex) AppendHolders(dst []int32, key uint64) []int32 {
	i, ok := x.find(key)
	if !ok {
		return dst
	}
	c := &x.cells[i]
	dst = appendBits(dst, 0, c.bits)
	if x.stride > 0 {
		for w, word := range x.slot(c.slot) {
			dst = appendBits(dst, 64*(w+1), word)
		}
	}
	return dst
}

// appendBits appends base plus the index of each set bit of word.
func appendBits(dst []int32, base int, word uint64) []int32 {
	for word != 0 {
		dst = append(dst, int32(base+bits.TrailingZeros64(word)))
		word &= word - 1
	}
	return dst
}

// word returns the bitmap word of c that holds holder's bit.
func (x *HolderIndex) word(c *holderCell, holder int) *uint64 {
	if holder < 64 {
		return &c.bits
	}
	return &x.slot(c.slot)[holder>>6-1]
}

// home returns key's home cell: the top bits of its Fibonacci hash.
func (x *HolderIndex) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> x.shift) }

// find returns the cell holding key, or else the free cell ending its
// probe run, where an insert of key belongs. An empty index (possibly
// not laid out yet) holds nothing.
func (x *HolderIndex) find(key uint64) (int, bool) {
	i := x.home(key)
	if x.n == 0 {
		return i, false
	}
	for mask := len(x.cells) - 1; ; i = (i + 1) & mask {
		switch c := &x.cells[i]; {
		case c.count == 0:
			return i, false
		case c.key == key:
			return i, true
		}
	}
}

// remove frees cell i, shifting later cells of its probe run back so
// every key stays reachable from its home cell.
func (x *HolderIndex) remove(i int) {
	mask := len(x.cells) - 1
	for j := (i + 1) & mask; x.cells[j].count != 0; j = (j + 1) & mask {
		// Cell j may fill the hole at i unless its home lies cyclically
		// in (i, j].
		if (j-x.home(x.cells[j].key))&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = holderCell{}
	x.n--
}

// grow doubles the table; the first call also fixes the slot layout.
func (x *HolderIndex) grow() {
	if x.cells == nil && x.holders > 64 {
		x.stride = (x.holders - 1) >> 6
		for x.stride<<(x.pshift+1) <= pageWords {
			x.pshift++
		}
	}
	old := x.cells
	x.cells = make([]holderCell, max(minCells, 2*len(old)))
	x.shift = uint(64 - bits.TrailingZeros(uint(len(x.cells))))
	for _, c := range old {
		if c.count != 0 {
			i, _ := x.find(c.key)
			x.cells[i] = c
		}
	}
}

// slot returns slot s's bitmap words.
func (x *HolderIndex) slot(s int32) []uint64 {
	off := int(s&(1<<x.pshift-1)) * x.stride
	return x.pages[s>>x.pshift][off : off+x.stride : off+x.stride]
}

// alloc returns a free slot with all-zero words.
func (x *HolderIndex) alloc() int32 {
	if x.free != 0 {
		s := x.free - 1
		w := x.slot(s)
		x.free, w[0] = int32(w[0]), 0
		return s
	}
	s := x.used
	x.used++
	if int(s>>x.pshift) == len(x.pages) {
		x.pages = append(x.pages, make([]uint64, x.stride<<x.pshift))
	}
	return s
}

// release returns slot s, whose words are all zero, to the free list,
// threading the list through its first word.
func (x *HolderIndex) release(s int32) {
	x.slot(s)[0] = uint64(x.free)
	x.free = s + 1
}

// Check verifies the index against the holders' contents in both
// directions: every holder the index lists for a key holds it, and every
// key a holder caches is listed for that holder. holders[i] is the i-th
// added holder.
func (x *HolderIndex) Check(holders []CacheHolder) error {
	if len(holders) != x.holders {
		return fmt.Errorf("consistency: index has %d holders, checked against %d", x.holders, len(holders))
	}
	var scratch []int32
	for _, c := range x.cells {
		if c.count == 0 {
			continue
		}
		scratch = x.AppendHolders(scratch[:0], c.key)
		if int(c.count) != len(scratch) {
			return fmt.Errorf("consistency: block %#x counts %d holders, bitmap has %d", c.key, c.count, len(scratch))
		}
		for _, i := range scratch {
			if !holders[i].Holds(c.key) {
				return fmt.Errorf("consistency: index lists host %d for block %#x it does not cache",
					holders[i].HostID(), c.key)
			}
		}
	}
	var keys []uint64
	for i, h := range holders {
		keys = h.AppendResident(keys[:0])
		for _, key := range keys {
			j, ok := x.find(key)
			if !ok || *x.word(&x.cells[j], i)&(1<<(i&63)) == 0 {
				return fmt.Errorf("consistency: host %d caches block %#x the index does not list",
					h.HostID(), key)
			}
		}
	}
	return nil
}
