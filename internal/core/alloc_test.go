package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The pooled request path's contract: once a host is warm (request records
// pooled, cache entries recycling through their free lists, the engine's
// heap at its high-water mark), serving a block request allocates at most
// a small fixed amount — independent of how many requests have run.
//
// The budget is deliberately not zero: Go map internals (the fetch-dedup
// pending table) may occasionally rehash, and the filer's RNG draw feeds a
// histogram. The cache indexes are presized and never grow. It is a ceiling on the *steady state*, where
// the closure-based predecessor allocated on every asynchronous hop.
const allocBudgetPerRequest = 4.0

func TestWarmBlockPathAllocationBudget(t *testing.T) {
	cfg := baseCfg(Naive)
	cfg.RAMBlocks = 32
	cfg.FlashBlocks = 128
	r := newRig(t, cfg, testTiming())

	const span = 512 // working set far larger than flash: steady eviction churn
	key := func(i int) cache.Key { return cache.Key(i % span) }

	// Warm: fill caches, populate free lists, grow the event heap.
	for i := 0; i < 4*span; i++ {
		if i%3 == 0 {
			r.host.Write(key(i), nil)
		} else {
			r.host.Read(key(i), nil)
		}
		r.eng.Run()
	}

	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		if i%3 == 0 {
			r.host.Write(key(i), nil)
		} else {
			r.host.Read(key(i), nil)
		}
		i++
		r.eng.Run()
	})
	if allocs > allocBudgetPerRequest {
		t.Errorf("warm block request allocated %v per run, budget %v", allocs, allocBudgetPerRequest)
	}
}

// A warm RAM hit — the most common event in every experiment — must be
// fully allocation-free.
func TestWarmRAMHitAllocationFree(t *testing.T) {
	cfg := baseCfg(Naive)
	r := newRig(t, cfg, testTiming())

	r.host.Read(1, nil)
	r.eng.Run()
	allocs := testing.AllocsPerRun(2000, func() {
		r.host.Read(1, nil)
		r.eng.Run()
	})
	if allocs != 0 {
		t.Errorf("warm RAM read hit allocated %v per run, want 0", allocs)
	}
}

// Consistency routing must not cost an allocation per request: hosts
// sharing an instant-mode registry serve a warm RAM-hit read and a write
// to a resident block without allocating, like a host without one.
func TestRegistryRoutedRequestAllocationFree(t *testing.T) {
	eng, hosts, reg := buildCluster(t, 2, baseCfg(Naive), testTiming(), true)
	reg.SetCollect(true)
	for _, h := range hosts {
		h.SetCollect(true)
	}
	// Warm: host 0 holds block 1, host 1 holds block 2; each block has a
	// single holder, so a write finds one to skip and none to drop.
	hosts[0].Write(1, nil)
	hosts[1].Read(2, nil)
	eng.RunUntil(100 * sim.Millisecond)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"RAM-hit read", func() { hosts[1].Read(2, nil) }},
		{"resident-block write", func() { hosts[0].Write(1, nil) }},
	} {
		allocs := testing.AllocsPerRun(2000, func() {
			tc.op()
			eng.RunUntil(eng.Now() + sim.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("registry-routed %s allocated %v per run, want 0", tc.name, allocs)
		}
	}
	if reg.BlocksWritten() == 0 {
		t.Fatal("writes bypassed the registry")
	}
}

// repeatSource yields the same op forever.
type repeatSource struct{ op trace.Op }

func (s *repeatSource) Next() (trace.Op, bool) { return s.op, true }

// A pump that finds its head-of-line op's thread queue still full keeps
// holding the op; re-checking the full window must not allocate.
func TestFullWindowPumpAllocationFree(t *testing.T) {
	eng, hosts, _ := buildCluster(t, 1, baseCfg(Naive), testTiming(), false)
	src := &repeatSource{trace.Op{Host: 0, Thread: 0, Kind: trace.Read, File: 1, Count: 1}}
	d, err := NewDriver(eng, hosts, nil, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.pump() // fills the thread's queue and holds the next op
	if !d.holding {
		t.Fatal("pump did not hold an op behind the full window")
	}
	allocs := testing.AllocsPerRun(1000, d.pump)
	if allocs != 0 {
		t.Errorf("full-window pump allocated %v per run, want 0", allocs)
	}
	if !d.holding || d.consumed != int64(d.window)+2 {
		t.Fatalf("holding %v after consuming %d blocks, want the op after the window held",
			d.holding, d.consumed)
	}
}
