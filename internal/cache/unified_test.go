package cache

import (
	"testing"

	"repro/internal/rng"
)

func fillUnified(u *Unified, n int) {
	for k := Key(0); k < Key(n); k++ {
		if u.NeedsEviction() {
			u.Remove(u.Victim())
		}
		u.Insert(k)
	}
}

func TestUnifiedAllocationMix(t *testing.T) {
	// 8 RAM + 64 flash buffers: after filling, the resident RAM fraction
	// must be exactly 8/72 because every buffer gets used.
	u := NewUnified(8, 64)
	fillUnified(u, 72)
	if u.Len() != 72 {
		t.Fatalf("len = %d", u.Len())
	}
	if u.ResidentRAM() != 8 {
		t.Fatalf("residentRAM = %d, want 8", u.ResidentRAM())
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedProportionalFill(t *testing.T) {
	// While filling, the mix should roughly track the configured ratio
	// rather than exhausting one pool first.
	u := NewUnified(10, 90)
	fillUnified(u, 50)
	if u.ResidentRAM() < 3 || u.ResidentRAM() > 7 {
		t.Fatalf("after half fill residentRAM = %d, want ~5", u.ResidentRAM())
	}
}

func TestUnifiedVictimMediumInherited(t *testing.T) {
	u := NewUnified(1, 1)
	fillUnified(u, 2)
	v := u.Victim()
	vm := v.Medium()
	u.Remove(v)
	e := u.Insert(100)
	if e.Medium() != vm {
		t.Fatalf("new entry medium %v, want inherited %v", e.Medium(), vm)
	}
}

func TestUnifiedNoMigration(t *testing.T) {
	u := NewUnified(2, 2)
	fillUnified(u, 4)
	for k := Key(0); k < 4; k++ {
		before := u.Peek(k).Medium()
		u.Get(k) // promote
		if u.Peek(k).Medium() != before {
			t.Fatal("medium changed on promotion")
		}
	}
}

func TestUnifiedHitsByMedium(t *testing.T) {
	u := NewUnified(1, 1)
	fillUnified(u, 2)
	var ramKey, flashKey Key = 0, 1
	if u.Peek(0).Medium() != RAM {
		ramKey, flashKey = 1, 0
	}
	u.Get(ramKey)
	u.Get(flashKey)
	u.Get(flashKey)
	ram, flash := u.HitsByMedium()
	if ram != 1 || flash != 2 {
		t.Fatalf("hits by medium = %d/%d, want 1/2", ram, flash)
	}
}

func TestUnifiedDirty(t *testing.T) {
	u := NewUnified(2, 2)
	e := u.Insert(1)
	u.MarkDirty(e)
	if u.DirtyLen() != 1 {
		t.Fatal("dirty len wrong")
	}
	u.MarkClean(e)
	if u.DirtyLen() != 0 {
		t.Fatal("dirty len after clean wrong")
	}
	u.MarkDirty(e)
	u.Remove(e)
	if u.DirtyLen() != 0 {
		t.Fatal("remove did not clear dirty")
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedAppendDirtyOldestFirst(t *testing.T) {
	u := NewUnified(4, 4)
	var order []Key
	for k := Key(0); k < 4; k++ {
		e := u.Insert(k)
		u.MarkDirty(e)
		order = append(order, k)
	}
	got := u.AppendDirty(nil)
	for i, e := range got {
		if e.Key() != order[i] {
			t.Fatalf("dirty order wrong: %v", got)
		}
	}
}

func TestUnifiedEvictionLRUOrder(t *testing.T) {
	u := NewUnified(1, 2)
	fillUnified(u, 3)
	u.Get(0)
	v := u.Victim()
	if v.Key() != 1 {
		t.Fatalf("victim = %d, want 1", v.Key())
	}
}

// Touch promotes like a hit but leaves the hit counters alone.
func TestUnifiedTouch(t *testing.T) {
	u := NewUnified(1, 2)
	fillUnified(u, 3)
	u.Touch(u.Peek(0))
	if v := u.Victim(); v.Key() != 1 {
		t.Fatalf("victim = %d, want 1", v.Key())
	}
	if ram, flash := u.HitsByMedium(); ram+flash != 0 || u.Hits() != 0 {
		t.Fatalf("touch counted hits: ram %d flash %d total %d", ram, flash, u.Hits())
	}
}

func TestUnifiedPinnedSkipped(t *testing.T) {
	u := NewUnified(1, 1)
	e0 := u.Insert(0)
	u.Insert(1)
	e0.Pinned = true
	u.Get(1) // 0 would be LRU but is pinned... promote 1 so 0 is LRU
	if v := u.Victim(); v == nil || v.Key() != 1 {
		t.Fatalf("victim should skip pinned, got %v", v)
	}
}

func TestUnifiedBufferConservation(t *testing.T) {
	r := rng.New(7)
	u := NewUnified(4, 12)
	for i := 0; i < 20000; i++ {
		k := Key(r.Intn(50))
		if e := u.Peek(k); e != nil {
			if r.Bool(0.3) {
				u.Remove(e)
			} else {
				u.Get(k)
				if r.Bool(0.2) {
					u.MarkDirty(e)
				}
			}
			continue
		}
		if u.NeedsEviction() {
			u.Remove(u.Victim())
		}
		u.Insert(k)
		if i%500 == 0 {
			if err := u.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := u.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUnifiedZeroRAM(t *testing.T) {
	u := NewUnified(0, 4)
	fillUnified(u, 4)
	if u.ResidentRAM() != 0 {
		t.Fatal("resident RAM in zero-RAM cache")
	}
	for k := Key(0); k < 4; k++ {
		if u.Peek(k).Medium() != Flash {
			t.Fatal("non-flash entry in zero-RAM cache")
		}
	}
}

func TestUnifiedDuplicateInsertPanics(t *testing.T) {
	u := NewUnified(1, 1)
	u.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert did not panic")
		}
	}()
	u.Insert(1)
}

func TestUnifiedInsertFullPanics(t *testing.T) {
	u := NewUnified(1, 0)
	u.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("insert into full unified did not panic")
		}
	}()
	u.Insert(2)
}

func BenchmarkUnifiedGetHit(b *testing.B) {
	u := NewUnified(128, 896)
	fillUnified(u, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Get(Key(i & 1023))
	}
}
