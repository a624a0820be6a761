package cache

import "fmt"

// Unified is the paper's unified architecture cache (§3.3): RAM and flash
// buffers managed as a single LRU chain. A newly inserted block is "placed
// into the least recently used buffer, whether RAM or flash", inherits that
// buffer's medium, and never migrates. No attempt is made to prefer RAM over
// flash.
type Unified struct {
	base
	lru list

	ramBufs, flashBufs int // total buffers per medium
	freeRAM, freeFlash int // unallocated buffers per medium
	residentRAM        int // resident entries backed by RAM
	hitsRAM, hitsFlash uint64
	allocFlipFlop      bool // tie-breaker for free-buffer allocation
}

// NewUnified returns a unified cache with the given buffer counts.
func NewUnified(ramBufs, flashBufs int) *Unified {
	if ramBufs < 0 || flashBufs < 0 {
		panic("cache: negative buffer count")
	}
	u := &Unified{
		ramBufs:   ramBufs,
		flashBufs: flashBufs,
		freeRAM:   ramBufs,
		freeFlash: flashBufs,
	}
	u.init(ramBufs + flashBufs)
	return u
}

// ResidentRAM returns how many resident blocks live in RAM buffers.
func (u *Unified) ResidentRAM() int { return u.residentRAM }

// Keys appends all resident keys, MRU first, to dst and returns it.
func (u *Unified) Keys(dst []Key) []Key { return u.tab.appendKeys(&u.lru, dst) }

// HitsByMedium splits hits.
func (u *Unified) HitsByMedium() (ram, flash uint64) {
	return u.hitsRAM, u.hitsFlash
}

// Get looks up key, promoting to MRU and counting the outcome.
func (u *Unified) Get(key Key) *Entry {
	e := u.get(key)
	if e == nil {
		return nil
	}
	if e.medium == RAM {
		u.hitsRAM++
	} else {
		u.hitsFlash++
	}
	u.tab.moveToFront(&u.lru, e)
	return e
}

// Touch promotes e to MRU without counting a hit.
func (u *Unified) Touch(e *Entry) { u.tab.moveToFront(&u.lru, e) }

// Victim returns the least recently used unpinned entry, or nil.
func (u *Unified) Victim() *Entry { return u.tab.lastUnpinned(&u.lru) }

// Insert adds key at MRU, choosing the buffer medium. While free buffers
// remain, allocation draws from whichever pool has proportionally more free
// buffers (alternating on ties) so the initial mix matches the configured
// ratio without preferring RAM. Once full, callers must first Remove a
// victim obtained from Victim; the freed buffer's medium is then inherited,
// which is exactly "placed into the least recently used buffer".
func (u *Unified) Insert(key Key) *Entry {
	if u.Capacity() == 0 {
		return nil
	}
	var m Medium
	tie := false
	switch {
	case u.freeRAM == 0 && u.freeFlash == 0:
		panic("cache: insert into full unified cache")
	case u.freeRAM == 0:
		m = Flash
	case u.freeFlash == 0:
		m = RAM
	default:
		fr := float64(u.freeRAM) / float64(u.ramBufs)
		ff := float64(u.freeFlash) / float64(u.flashBufs)
		switch {
		case fr > ff:
			m = RAM
		case ff > fr:
			m = Flash
		case u.allocFlipFlop:
			m, tie = RAM, true
		default:
			m, tie = Flash, true
		}
	}
	e := u.insert(key, m, &u.lru)
	if tie {
		u.allocFlipFlop = !u.allocFlipFlop
	}
	if m == RAM {
		u.freeRAM--
		u.residentRAM++
	} else {
		u.freeFlash--
	}
	return e
}

// Remove evicts e, returning its buffer to the free pool.
func (u *Unified) Remove(e *Entry) {
	u.remove(e, &u.lru)
	if e.medium == RAM {
		u.freeRAM++
		u.residentRAM--
	} else {
		u.freeFlash++
	}
}

// CheckInvariants verifies internal consistency.
func (u *Unified) CheckInvariants() error {
	if err := u.tab.check(&u.dirties, &u.lru); err != nil {
		return err
	}
	ram, flash := 0, 0
	for e := u.tab.front(&u.lru); e != nil; e = u.tab.next(&u.lru, e) {
		if e.medium == RAM {
			ram++
		} else {
			flash++
		}
	}
	if ram != u.residentRAM {
		return fmt.Errorf("residentRAM %d, walked %d", u.residentRAM, ram)
	}
	if ram+u.freeRAM != u.ramBufs {
		return fmt.Errorf("RAM buffers leaked: %d resident + %d free != %d", ram, u.freeRAM, u.ramBufs)
	}
	if flash+u.freeFlash != u.flashBufs {
		return fmt.Errorf("flash buffers leaked: %d resident + %d free != %d", flash, u.freeFlash, u.flashBufs)
	}
	return nil
}
