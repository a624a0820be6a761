package consistency

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// newFleet registers n fake holders with a fresh registry.
func newFleet(n int) (*Registry, []*fakeHolder) {
	r := NewRegistry()
	hs := make([]*fakeHolder, n)
	for i := range hs {
		hs[i] = newFakeHolder(i)
		hs[i].report = r.Register(hs[i])
	}
	return r, hs
}

func TestHolderIndexAscendingOrder(t *testing.T) {
	var x HolderIndex
	report := make([]func(uint64, bool), 130)
	for i := range report {
		report[i] = x.Add()
	}
	for _, i := range []int{129, 3, 64, 0, 63, 65} {
		report[i](7, true)
	}
	report[3](7, true) // a repeated report changes nothing
	got := x.AppendHolders(nil, 7)
	if want := []int32{0, 3, 63, 64, 65, 129}; !slices.Equal(got, want) {
		t.Fatalf("holders = %v, want %v", got, want)
	}
	if x.AppendHolders(nil, 8) != nil {
		t.Fatal("unheld key has holders")
	}
}

func TestHolderIndexFreesEmptiedSets(t *testing.T) {
	var x HolderIndex
	a, b := x.Add(), x.Add()
	a(1, true)
	b(1, true)
	a(2, true)
	a(1, false)
	b(1, false)
	b(1, false) // a repeated drop changes nothing
	if x.n != 1 {
		t.Fatalf("blocks = %d, want 1", x.n)
	}
	// A block that returns starts from an empty set: key 1 must not
	// keep holder 0.
	b(1, true)
	if got := x.AppendHolders(nil, 1); !slices.Equal(got, []int32{1}) {
		t.Fatalf("holders = %v, want [1]", got)
	}
}

// TestHolderIndexMatchesModel drives the index and a map-of-sets model
// through the same random reports. Keys share their low bits and come
// from a small range, so probe runs collide, wrap and grow, removals
// exercise the backward shift, and slots are freed and recycled many
// times over; 70 holders spill bitmaps into a second word.
func TestHolderIndexMatchesModel(t *testing.T) {
	const holders = 70
	var x HolderIndex
	report := make([]func(uint64, bool), holders)
	for i := range report {
		report[i] = x.Add()
	}
	model := make(map[uint64]map[int32]bool)
	peak := 0 // most keys held at once
	r := rand.New(rand.NewPCG(1, 2))
	for step := 0; step < 200000; step++ {
		key := r.Uint64N(2000) << 12
		// Few holders per key, so sets empty often; two of them live
		// past the first bitmap word.
		h := []int32{0, 5, 64, 69}[r.IntN(4)]
		held := r.IntN(2) == 0
		report[h](key, held)
		if held {
			if model[key] == nil {
				model[key] = make(map[int32]bool)
			}
			model[key][h] = true
		} else if model[key][h] {
			delete(model[key], h)
			if len(model[key]) == 0 {
				delete(model, key)
			}
		}
		if x.n != len(model) {
			t.Fatalf("step %d: %d blocks, model %d", step, x.n, len(model))
		}
		peak = max(peak, len(model))
	}
	if int(x.used) != peak {
		t.Fatalf("%d slots handed out for at most %d live keys: freed slots leak", x.used, peak)
	}
	for key, set := range model {
		var want []int32
		for h := range set {
			want = append(want, h)
		}
		slices.Sort(want)
		if got := x.AppendHolders(nil, key); !slices.Equal(got, want) {
			t.Fatalf("key %#x: holders %v, want %v", key, got, want)
		}
	}
}

func TestHolderIndexSpansPages(t *testing.T) {
	// 1024 holders keep 15 bitmap words per slot, 256 slots per page.
	r, hs := newFleet(1024)
	for k := uint64(0); k < 1000; k++ {
		hs[k%1024].put(k)
		hs[(k*7)%1024].put(k)
	}
	if len(r.index.pages) < 2 {
		t.Fatalf("pages = %d, want several", len(r.index.pages))
	}
	if err := r.CheckResidency(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1000; k += 3 {
		r.BlockWritten(int(k%1024), k)
	}
	if err := r.CheckResidency(); err != nil {
		t.Fatal(err)
	}
}

func TestHolderIndexCheckFindsDivergence(t *testing.T) {
	r, hs := newFleet(2)
	hs[0].put(1)
	hs[1].blocks[2] = true // cached but never reported
	if err := r.CheckResidency(); err == nil || !strings.Contains(err.Error(), "does not list") {
		t.Fatalf("unreported block: err = %v", err)
	}
	delete(hs[1].blocks, 2)
	delete(hs[0].blocks, 1) // dropped but never reported
	if err := r.CheckResidency(); err == nil || !strings.Contains(err.Error(), "does not cache") {
		t.Fatalf("stale index entry: err = %v", err)
	}
}

func TestHolderIndexAddAfterResidencyPanics(t *testing.T) {
	var x HolderIndex
	x.Add()(1, true)
	defer func() {
		if recover() == nil {
			t.Fatal("late Add did not panic")
		}
	}()
	x.Add()
}

// TestRegistryZeroAlloc locks the residency path at zero allocations per
// operation once warm: index updates recycle slots, and BlockWritten
// reuses its holder snapshot.
func TestRegistryZeroAlloc(t *testing.T) {
	const warm = 4096
	for _, n := range []int{2, 1024} {
		r, hs := newFleet(n)
		write := blockWrittenStep(r, hs)
		for i := 0; i < warm; i++ {
			write()
		}
		if got := testing.AllocsPerRun(1000, write); got != 0 {
			t.Errorf("%d holders: BlockWritten allocs/op = %v, want 0", n, got)
		}
		var x HolderIndex
		update := updateStep(&x, n)
		for i := 0; i < warm; i++ {
			update()
		}
		if got := testing.AllocsPerRun(1000, update); got != 0 {
			t.Errorf("%d holders: Update allocs/op = %v, want 0", n, got)
		}
	}
}

// blockWrittenStep returns successive steps of the write-sharing workload:
// a block cached by up to four hosts is written by one of them, dropping
// the other copies. Keys cycle through a small working set.
func blockWrittenStep(r *Registry, hs []*fakeHolder) func() {
	n, i := len(hs), 0
	return func() {
		key := uint64(i % 64)
		for j := 0; j < 4 && j < n; j++ {
			hs[(i+j*n/4)%n].put(key)
		}
		r.BlockWritten(i%n, key)
		i++
	}
}

// updateStep returns successive steps of the index churn workload: a
// block enters a holder's cache and the block that entered 64 steps
// earlier leaves, as an eviction would have it. Keys cycle through a
// working set of 256.
func updateStep(x *HolderIndex, n int) func() {
	report := make([]func(uint64, bool), n)
	for j := range report {
		report[j] = x.Add()
	}
	i := 0
	return func() {
		report[i%n](uint64(i%256), true)
		if old := i - 64; old >= 0 {
			report[old%n](uint64(old%256), false)
		}
		i++
	}
}

func BenchmarkRegistryBlockWritten(b *testing.B) {
	for _, n := range []int{2, 1024} {
		b.Run(fmt.Sprintf("holders=%d", n), func(b *testing.B) {
			r, hs := newFleet(n)
			write := blockWrittenStep(r, hs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}

func BenchmarkHolderIndexUpdate(b *testing.B) {
	var x HolderIndex
	update := updateStep(&x, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		update()
	}
}
