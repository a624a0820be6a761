package cache

import "fmt"

// Segment tags for SLRU entries.
const (
	segProbation uint8 = iota
	segProtected
)

// SLRU is a segmented LRU: new blocks enter a probationary segment and are
// promoted to a protected segment on re-reference; victims come from
// probation first. Scan-resistant relative to plain LRU, which matters for
// a flash cache polluted by the workload's 20% whole-file-server traffic.
type SLRU struct {
	base
	protectedCap int
	medium       Medium
	probation    list
	protected    list
}

// NewSLRU returns a segmented LRU with the protected segment sized to half
// the capacity.
func NewSLRU(capacity int, m Medium) *SLRU {
	s := &SLRU{protectedCap: capacity / 2, medium: m}
	s.init(capacity)
	return s
}

// ProtectedLen reports the protected segment's population (for tests).
func (s *SLRU) ProtectedLen() int { return s.protected.len }

// Get looks up key, promoting probation hits into the protected segment.
func (s *SLRU) Get(key Key) *Entry {
	e := s.get(key)
	if e != nil {
		s.promote(e)
	}
	return e
}

// Touch promotes without counting a hit.
func (s *SLRU) Touch(e *Entry) { s.promote(e) }

func (s *SLRU) promote(e *Entry) {
	if e.seg == segProtected {
		s.tab.moveToFront(&s.protected, e)
		return
	}
	if s.protectedCap == 0 {
		// Degenerate capacity: behave as plain LRU within probation.
		s.tab.moveToFront(&s.probation, e)
		return
	}
	s.tab.unlink(&s.probation, e)
	e.seg = segProtected
	s.tab.pushFront(&s.protected, e)
	// Demote the protected segment's LRU end when over quota.
	for s.protected.len > s.protectedCap {
		d := s.tab.back(&s.protected)
		s.tab.unlink(&s.protected, d)
		d.seg = segProbation
		s.tab.pushFront(&s.probation, d)
	}
}

// Victim returns the probationary LRU entry, falling back to the
// protected segment when probation is empty or fully pinned.
func (s *SLRU) Victim() *Entry {
	if e := s.tab.lastUnpinned(&s.probation); e != nil {
		return e
	}
	return s.tab.lastUnpinned(&s.protected)
}

// Insert adds key to the probationary segment's MRU end.
func (s *SLRU) Insert(key Key) *Entry { return s.insert(key, s.medium, &s.probation) }

// Remove evicts e.
func (s *SLRU) Remove(e *Entry) { s.remove(e, s.segment(e)) }

// segment returns the list e sits on.
func (s *SLRU) segment(e *Entry) *list {
	if e.seg == segProtected {
		return &s.protected
	}
	return &s.probation
}

// Keys implements BlockCache: protected MRU first, then probation.
func (s *SLRU) Keys(dst []Key) []Key {
	return s.tab.appendKeys(&s.probation, s.tab.appendKeys(&s.protected, dst))
}

// CheckInvariants implements BlockCache.
func (s *SLRU) CheckInvariants() error {
	if err := s.tab.check(&s.dirties, &s.probation, &s.protected); err != nil {
		return err
	}
	for _, l := range []*list{&s.probation, &s.protected} {
		for e := s.tab.front(l); e != nil; e = s.tab.next(l, e) {
			if s.segment(e) != l {
				return fmt.Errorf("entry %d tagged %d on the wrong segment", e.key, e.seg)
			}
		}
	}
	if s.protected.len > s.protectedCap {
		return fmt.Errorf("protected %d over quota %d", s.protected.len, s.protectedCap)
	}
	return nil
}
