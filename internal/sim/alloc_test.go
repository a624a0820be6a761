package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The engine's contract: once the event queue's slot arrays have grown to
// their high-water mark, steady-state scheduling allocates nothing — no
// interface boxing per push, no per-event records — at any queue depth.

func TestScheduleStepAllocationFree(t *testing.T) {
	var e Engine
	fn := func() {}
	// Warm the queue's slot arrays past any size this test reaches.
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i), fn)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(10, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocated %v per run, want 0", allocs)
	}
}

func TestSchedule2AllocationFree(t *testing.T) {
	var e Engine
	type probe struct{ n int }
	p := &probe{}
	fn := func(a any) { a.(*probe).n++ }
	for i := 0; i < 64; i++ {
		e.Schedule2(Time(i), fn, p)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule2(10, fn, p)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule2+Step allocated %v per run, want 0", allocs)
	}
	if p.n == 0 {
		t.Fatal("arg-carrying callback never ran")
	}
}

func TestServerUseAllocationFree(t *testing.T) {
	var e Engine
	s := NewServer(&e, "srv")
	done := func() {}
	s.Use(1, done)
	e.RunAll()

	// Closure form (callback built once, outside the measured loop) and
	// the nil-done placeholder path must both be allocation-free.
	allocs := testing.AllocsPerRun(1000, func() {
		s.Use(5, done)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Use allocated %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		s.Use(5, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Use(nil done) allocated %v per run, want 0", allocs)
	}

	type probe struct{ n int }
	p := &probe{}
	fn := func(a any) { a.(*probe).n++ }
	allocs = testing.AllocsPerRun(1000, func() {
		s.Use2(5, fn, p)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Use2 allocated %v per run, want 0", allocs)
	}
}

func TestTickerTickAllocationFree(t *testing.T) {
	var e Engine
	ticks := 0
	NewTicker(&e, 10, func() { ticks++ })
	e.Step() // first tick; rearms itself
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ticker tick allocated %v per run, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// BenchmarkEngineSchedule measures the raw schedule+dispatch cycle: one
// push and one pop through the event queue per iteration.
func BenchmarkEngineSchedule(b *testing.B) {
	var e Engine
	fn := func() {}
	// Keep a standing population so the queue works at a realistic depth.
	for i := 0; i < 256; i++ {
		e.Schedule(Time(i%17), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(10, fn)
		e.Step()
	}
}

// holdModel is the classic hold workload: depth events are pending and
// every event, when it runs, schedules its successor after a seeded random
// delay, so each Step is one pop plus one push at a constant queue depth.
type holdModel struct {
	e      *Engine
	delays []Time
	k      int
}

func holdFire(a any) {
	h := a.(*holdModel)
	h.e.Schedule2(h.delays[h.k&(len(h.delays)-1)], holdFire, h)
	h.k++
}

// newHold returns an engine holding depth pending events, with delays
// drawn uniformly over [0, 100us) from a fixed seed.
func newHold(depth int) *Engine {
	e := &Engine{}
	rng := rand.New(rand.NewSource(1))
	h := &holdModel{e: e, delays: make([]Time, 1<<12)}
	for i := range h.delays {
		h.delays[i] = Time(rng.Int63n(int64(100 * Microsecond)))
	}
	for i := 0; i < depth; i++ {
		e.Schedule2(h.delays[i&(len(h.delays)-1)], holdFire, h)
	}
	return e
}

func TestHoldAllocationFree(t *testing.T) {
	e := newHold(4096)
	for i := 0; i < 100000; i++ { // warm up past the initial transient
		e.Step()
	}
	allocs := testing.AllocsPerRun(10000, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("hold Step at depth 4096 allocated %v per run, want 0", allocs)
	}
	if e.Pending() != 4096 {
		t.Fatalf("pending = %d, want 4096", e.Pending())
	}
}

// BenchmarkEngineHold measures one hold step (a pop and a push) at the
// queue depths the simulations run at: a single-host paper run averages
// about 128 pending events, and the 1024-host fleet on the sequential
// engine runs at a few thousand, peaking near 4096.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{128, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := newHold(depth)
			for i := 0; i < 4*depth; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
