package cache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/rng"
)

// fibonacciInverse returns the multiplicative inverse of the hash
// multiplier modulo 2^64 (Newton's iteration; each step doubles the
// correct low bits).
func fibonacciInverse() uint64 {
	inv := uint64(fibonacci)
	for i := 0; i < 6; i++ {
		inv *= 2 - fibonacci*inv
	}
	return inv
}

// collidingKeys returns n distinct keys whose hashes all carry tag, so
// they share one home cell in every table and differ only in the low
// hash bits the index does not keep.
func collidingKeys(t testing.TB, tag uint32, n int) []Key {
	inv := fibonacciInverse()
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key((uint64(tag)<<32 | uint64(2*i+1)) * inv)
		if got := tagOf(keys[i]); got != tag {
			t.Fatalf("key %#x has tag %#x, want %#x", keys[i], got, tag)
		}
	}
	return keys
}

// TestEntryIsCompactAndPointerFree locks the slab's layout: an Entry fits
// in 56 bytes and holds no pointers, so the garbage collector skips every
// page, and an index cell is 8 bytes.
func TestEntryIsCompactAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Entry{}); size > 56 {
		t.Errorf("Entry is %d bytes, want at most 56", size)
	}
	if size := unsafe.Sizeof(cell{}); size != 8 {
		t.Errorf("cell is %d bytes, want 8", size)
	}
	var walk func(reflect.Type) error
	walk = func(typ reflect.Type) error {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if err := walk(typ.Field(i).Type); err != nil {
					return fmt.Errorf("%s.%w", typ.Field(i).Name, err)
				}
			}
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			return fmt.Errorf("%s holds a %s", typ.Name(), typ.Kind())
		}
		return nil
	}
	if err := walk(reflect.TypeOf(Entry{})); err != nil {
		t.Errorf("Entry is not pointer-free: %v", err)
	}
}

func TestFibonacciInverse(t *testing.T) {
	if fibonacci*fibonacciInverse() != 1 {
		t.Fatal("not the multiplicative inverse")
	}
}

// modelKeys mixes a small random-key universe with groups of keys that
// collide on their tag: at the first and last home cells (so probe runs
// wrap around the table) and at two arbitrary ones.
func modelKeys(t testing.TB) []Key {
	var keys []Key
	for k := Key(0); k < 96; k++ {
		keys = append(keys, k*7919)
	}
	for _, tag := range []uint32{0, 0xffffffff, 0x12345678, 0x9abcdef0} {
		keys = append(keys, collidingKeys(t, tag, 12)...)
	}
	return keys
}

// TestIndexAgainstMap drives random Insert/Get/Peek/Remove through every
// slab page and many backward-shift deletes and compares each lookup with
// a map holding the entry pointers Insert returned.
func TestIndexAgainstMap(t *testing.T) {
	keys := modelKeys(t)
	for _, capacity := range []int{1, 3, 12, 64, 100} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := NewLRU(capacity, Flash)
			model := map[Key]*Entry{}
			gens := map[*Entry]uint64{}
			peak := 0
			r := rng.New(uint64(capacity))
			for step := 0; step < 30000; step++ {
				k := keys[r.Intn(len(keys))]
				switch r.Intn(4) {
				case 0:
					if got, want := c.Get(k), model[k]; got != want {
						t.Fatalf("step %d: Get(%#x) = %p, want %p", step, k, got, want)
					}
				case 1:
					if got, want := c.Peek(k), model[k]; got != want {
						t.Fatalf("step %d: Peek(%#x) = %p, want %p", step, k, got, want)
					}
				case 2:
					if model[k] != nil {
						continue
					}
					if c.NeedsEviction() {
						v := c.Victim()
						delete(model, v.Key())
						c.Remove(v)
						if v.Gen() != gens[v]+1 {
							t.Fatalf("step %d: removal left gen %d, want %d", step, v.Gen(), gens[v]+1)
						}
					}
					e := c.Insert(k)
					if e.Key() != k || e.Dirty || e.Pinned {
						t.Fatalf("step %d: fresh entry %+v", step, e)
					}
					model[k] = e
					gens[e] = e.Gen()
					peak = max(peak, c.Len())
				case 3:
					if e := model[k]; e != nil {
						c.Remove(e)
						delete(model, k)
					}
				}
				if step%97 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if got, want := c.Peek(k), model[k]; got != want {
					t.Fatalf("Peek(%#x) = %p, want %p", k, got, want)
				}
			}
			if int(c.tab.used) != peak {
				t.Fatalf("slab handed out %d slots for a peak population of %d", c.tab.used, peak)
			}
		})
	}
}

// TestIndexCollidingKeys fills a table with keys that share one tag and
// home cell, so every lookup walks the run comparing keys, and deletes
// from the middle of the run.
func TestIndexCollidingKeys(t *testing.T) {
	keys := collidingKeys(t, 0xffffffff, 24)
	c := NewLRU(len(keys), RAM)
	entries := map[Key]*Entry{}
	for _, k := range keys {
		entries[k] = c.Insert(k)
	}
	for i := 0; i < len(keys); i += 3 {
		c.Remove(entries[keys[i]])
		delete(entries, keys[i])
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after removing key %d: %v", i, err)
		}
	}
	for _, k := range keys {
		if got := c.Peek(k); got != entries[k] {
			t.Fatalf("Peek(%#x) = %p, want %p", k, got, entries[k])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert of a colliding key did not panic")
		}
	}()
	c.Insert(keys[1])
}

// TestEntryPointersSurviveSlabGrowth checks that growing the slab never
// moves an entry: pointers handed out on the first page stay the indexed
// entries after every later page is allocated.
func TestEntryPointersSurviveSlabGrowth(t *testing.T) {
	c := NewLRU(1000, RAM)
	first := make([]*Entry, 8)
	for k := range first {
		first[k] = c.Insert(Key(k))
	}
	for k := Key(8); k < 1000; k++ {
		c.Insert(k)
	}
	if len(c.tab.pages) != 7 || len(c.tab.pages[6]) != 1000-504 {
		t.Fatalf("pages %d, last %d entries; want 7 with the last cut to %d",
			len(c.tab.pages), len(c.tab.pages[len(c.tab.pages)-1]), 1000-504)
	}
	for k, e := range first {
		if c.Peek(Key(k)) != e {
			t.Fatalf("entry for key %d moved", k)
		}
	}
}

func TestRemoveForeignEntryPanics(t *testing.T) {
	a, b := NewLRU(4, RAM), NewLRU(4, RAM)
	a.Insert(1)
	e := b.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("removing another cache's entry did not panic")
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}()
	a.Remove(e)
}

// checked is what the damage test needs of a cache.
type checked interface {
	Peek(Key) *Entry
	Insert(Key) *Entry
	CheckInvariants() error
}

// allCaches returns one cache of every policy, plus the unified cache.
func allCaches(capacity int) map[string]checked {
	return map[string]checked{
		"lru":     NewLRU(capacity, Flash),
		"fifo":    NewFIFO(capacity, Flash),
		"clock":   NewClock(capacity, Flash),
		"slru":    NewSLRU(capacity, Flash),
		"2q":      NewTwoQ(capacity, Flash),
		"unified": NewUnified(capacity/4, capacity-capacity/4),
	}
}

// residentLists returns a cache's index and the lists that hold its
// resident entries.
func residentLists(c any) (*table, []*list) {
	switch c := c.(type) {
	case *LRU:
		return &c.tab, []*list{&c.lru}
	case *FIFO:
		return &c.tab, []*list{&c.lru}
	case *Clock:
		return &c.tab, []*list{&c.lru}
	case *SLRU:
		return &c.tab, []*list{&c.probation, &c.protected}
	case *TwoQ:
		return &c.tab, []*list{&c.a1in, &c.am}
	case *Unified:
		return &c.tab, []*list{&c.lru}
	}
	panic(fmt.Sprintf("unknown cache %T", c))
}

// TestCheckInvariantsCatchesIndexDamage damages each policy's index in
// three ways and expects CheckInvariants to name each: a cell whose tag
// no longer matches its entry's key, a listed entry missing from the
// index, and an indexed entry missing from every list.
func TestCheckInvariantsCatchesIndexDamage(t *testing.T) {
	damage := []struct {
		name, want string
		do         func(tab *table, lists []*list, i int, e *Entry)
	}{
		{"tag", "does not match key", func(tab *table, _ []*list, i int, _ *Entry) {
			tab.cells[i].tag ^= 1
		}},
		{"unindexed", "on list but not indexed", func(tab *table, _ []*list, i int, e *Entry) {
			links, gen, free := e.links, e.gen, tab.free
			tab.drop(i, e)
			e.links, e.gen, tab.free = links, gen, free
		}},
		{"unlisted", "on no list", func(tab *table, lists []*list, _ int, e *Entry) {
			for _, l := range lists {
				for x := tab.front(l); x != nil; x = tab.next(l, x) {
					if x == e {
						tab.unlink(l, e)
						return
					}
				}
			}
		}},
	}
	for _, d := range damage {
		for name, c := range allCaches(16) {
			for k := Key(0); k < 10; k++ {
				c.Insert(k * 31)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("%s before damage: %v", name, err)
			}
			tab, lists := residentLists(c)
			e := c.Peek(5 * 31)
			i, _ := tab.find(e.key)
			d.do(tab, lists, i, e)
			err := c.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), d.want) {
				t.Errorf("%s, %s damage: CheckInvariants = %v, want %q", name, d.name, err, d.want)
			}
		}
	}
}

// paperScale is the paper's flash cache at 1:32, 524,288 blocks: an index
// and entry slab far larger than the CPU caches, unlike the 1024-entry
// benchmarks.
const paperScale = 1 << 19

// scatteredKey returns the i-th of a sequence of distinct, scattered keys
// (the splitmix64 finalizer, a bijection).
func scatteredKey(i int) Key {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return Key(z ^ z>>31)
}

// scatteredOrder returns n keys drawn from the first n of scatteredKey in
// a scattered order, so consecutive lookups touch unrelated cells and
// entries.
func scatteredOrder(n int) []Key {
	order := make([]Key, n)
	for i := range order {
		order[i] = scatteredKey(int(uint64(scatteredKey(i)) % uint64(n)))
	}
	return order
}

func BenchmarkLRUGetHitPaperScale(b *testing.B) {
	c := NewLRU(paperScale, Flash)
	for i := 0; i < paperScale; i++ {
		c.Insert(scatteredKey(i))
	}
	order := scatteredOrder(paperScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(order[i&(paperScale-1)])
	}
}

func BenchmarkLRUInsertEvictPaperScale(b *testing.B) {
	c := NewLRU(paperScale, Flash)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.NeedsEviction() {
			c.Remove(c.Victim())
		}
		c.Insert(scatteredKey(i))
	}
}

func BenchmarkUnifiedGetHitPaperScale(b *testing.B) {
	u := NewUnified(paperScale/8, paperScale-paperScale/8)
	for i := 0; i < paperScale; i++ {
		u.Insert(scatteredKey(i))
	}
	order := scatteredOrder(paperScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Get(order[i&(paperScale-1)])
	}
}
