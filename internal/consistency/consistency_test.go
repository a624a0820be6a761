package consistency

import "testing"

// fakeHolder is a map-backed cache for registry tests. Like a real host
// it reports every residency transition through the callback Register
// returned.
type fakeHolder struct {
	id     int
	blocks map[uint64]bool
	report func(key uint64, held bool)
}

func newFakeHolder(id int) *fakeHolder {
	return &fakeHolder{id: id, blocks: make(map[uint64]bool)}
}

func (f *fakeHolder) HostID() int { return f.id }

func (f *fakeHolder) Invalidate(key uint64) bool {
	if f.blocks[key] {
		delete(f.blocks, key)
		f.report(key, false)
		return true
	}
	return false
}

func (f *fakeHolder) Holds(key uint64) bool { return f.blocks[key] }

func (f *fakeHolder) AppendResident(dst []uint64) []uint64 {
	for k := range f.blocks {
		dst = append(dst, k)
	}
	return dst
}

// put caches key and reports it.
func (f *fakeHolder) put(key uint64) {
	f.blocks[key] = true
	f.report(key, true)
}

func TestRegistryInvalidation(t *testing.T) {
	r := NewRegistry()
	a := newFakeHolder(0)
	b := newFakeHolder(1)
	c := newFakeHolder(2)
	a.report = r.Register(a)
	b.report = r.Register(b)
	c.report = r.Register(c)
	r.SetCollect(true)

	b.put(42)
	c.put(42)
	a.put(42)

	r.BlockWritten(0, 42)
	if a.blocks[42] != true {
		t.Fatal("writer's own copy dropped")
	}
	if b.blocks[42] || c.blocks[42] {
		t.Fatal("remote copies survived")
	}
	if r.BlocksWritten() != 1 || r.WritesInvalidating() != 1 || r.Invalidations() != 2 {
		t.Fatalf("counts: written=%d invalWrites=%d inval=%d",
			r.BlocksWritten(), r.WritesInvalidating(), r.Invalidations())
	}
	if r.InvalidationFraction() != 1.0 {
		t.Fatalf("fraction = %v", r.InvalidationFraction())
	}
}

func TestRegistryNoRemoteCopies(t *testing.T) {
	r := NewRegistry()
	a := newFakeHolder(0)
	b := newFakeHolder(1)
	a.report = r.Register(a)
	b.report = r.Register(b)
	r.SetCollect(true)
	r.BlockWritten(0, 7)
	if r.WritesInvalidating() != 0 || r.Invalidations() != 0 {
		t.Fatal("phantom invalidations")
	}
	if r.BlocksWritten() != 1 {
		t.Fatal("write not counted")
	}
	if r.InvalidationFraction() != 0 {
		t.Fatal("fraction should be 0")
	}
}

func TestRegistryCollectGating(t *testing.T) {
	r := NewRegistry()
	a := newFakeHolder(0)
	b := newFakeHolder(1)
	a.report = r.Register(a)
	b.report = r.Register(b)
	b.put(1)
	r.BlockWritten(0, 1) // not collecting: copy dropped, nothing counted
	if b.blocks[1] {
		t.Fatal("invalidation must happen even during warmup")
	}
	if r.BlocksWritten() != 0 || r.Invalidations() != 0 {
		t.Fatal("warmup writes counted")
	}
	if r.InvalidationFraction() != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestRegistrySingleHost(t *testing.T) {
	r := NewRegistry()
	a := newFakeHolder(0)
	a.report = r.Register(a)
	r.SetCollect(true)
	a.put(1)
	r.BlockWritten(0, 1)
	if r.WritesInvalidating() != 0 {
		t.Fatal("single host invalidated itself")
	}
}

// fakePeer extends fakeHolder with instant control messages and flushes,
// recording traffic.
type fakePeer struct {
	fakeHolder
	controls int
	flushes  int
	dirty    map[uint64]bool
}

func newFakePeer(id int) *fakePeer {
	return &fakePeer{
		fakeHolder: fakeHolder{id: id, blocks: make(map[uint64]bool)},
		dirty:      make(map[uint64]bool),
	}
}

func (f *fakePeer) SendControl(done func()) {
	f.controls++
	done()
}

func (f *fakePeer) FlushBlock(key uint64, done func()) {
	if f.dirty[key] {
		f.flushes++
		delete(f.dirty, key)
	}
	done()
}

func TestProtocolAcquireWriteOwnership(t *testing.T) {
	r := NewRegistry()
	r.SetMode(ModeCallback)
	if r.Mode() != ModeCallback {
		t.Fatal("mode not set")
	}
	a := newFakePeer(0)
	b := newFakePeer(1)
	a.report = r.Register(a)
	b.report = r.Register(b)
	r.SetCollect(true)

	b.put(9)
	done := false
	r.AcquireWrite(0, 9, func() { done = true })
	if !done {
		t.Fatal("acquire never completed")
	}
	if b.blocks[9] {
		t.Fatal("holder copy survived ownership acquisition")
	}
	if r.OwnershipAcquires() != 1 {
		t.Fatalf("acquires = %d", r.OwnershipAcquires())
	}
	// request + grant on writer, callback + ack on holder.
	if a.controls != 2 || b.controls != 2 {
		t.Fatalf("control messages writer=%d holder=%d, want 2/2", a.controls, b.controls)
	}
	if r.ControlMessages() != 4 {
		t.Fatalf("registry counted %d messages, want 4", r.ControlMessages())
	}

	// Second write to the owned block is silent.
	before := r.ControlMessages()
	done = false
	r.AcquireWrite(0, 9, func() { done = true })
	if !done || r.ControlMessages() != before {
		t.Fatal("owned write was not silent")
	}
}

func TestProtocolAcquireReadDowngrade(t *testing.T) {
	r := NewRegistry()
	r.SetMode(ModeCallback)
	a := newFakePeer(0)
	b := newFakePeer(1)
	a.report = r.Register(a)
	b.report = r.Register(b)
	r.SetCollect(true)

	// Host 0 takes ownership and dirties the block.
	r.AcquireWrite(0, 5, func() {})
	a.put(5)
	a.dirty[5] = true

	// Host 1 reads: owner must flush and downgrade.
	done := false
	r.AcquireRead(1, 5, func() { done = true })
	if !done {
		t.Fatal("read acquire never completed")
	}
	if a.dirty[5] {
		t.Fatal("owner's dirty copy not flushed on downgrade")
	}
	if r.Downgrades() != 1 {
		t.Fatalf("downgrades = %d", r.Downgrades())
	}
	// Subsequent reads are free (block now shared).
	before := r.ControlMessages()
	r.AcquireRead(1, 5, func() {})
	if r.ControlMessages() != before {
		t.Fatal("shared read cost messages")
	}
}

func TestProtocolInstantModeFree(t *testing.T) {
	r := NewRegistry()
	a := newFakePeer(0)
	b := newFakePeer(1)
	a.report = r.Register(a)
	b.report = r.Register(b)
	r.SetCollect(true)
	b.put(3)
	done := false
	r.AcquireWrite(0, 3, func() { done = true })
	if !done {
		t.Fatal("instant acquire blocked")
	}
	if b.blocks[3] {
		t.Fatal("instant mode did not invalidate")
	}
	if r.ControlMessages() != 0 || a.controls != 0 {
		t.Fatal("instant mode sent messages")
	}
	r.AcquireRead(1, 3, func() { done = true })
	if r.Downgrades() != 0 {
		t.Fatal("instant mode downgraded")
	}
}
