package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// checkTiers fails the test if any of the host's cache tiers is internally
// inconsistent.
func checkTiers(t *testing.T, h *Host) {
	t.Helper()
	for i, c := range h.tiers {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("tier %d: %v", i, err)
		}
	}
}

// With tiny caches full of dirty data and no background writeback, every
// eviction victim is pinned mid-writeback while a burst of inserts races
// for room: the later inserters must find no victim, back off, retry and
// still complete. A short periodic syncer ticking during the burst finds
// the same pinned (or already in-flight) blocks and skips them.
func TestEvictionRetryAllVictimsPinned(t *testing.T) {
	short := Policy{Kind: Periodic, Period: 300}
	for _, tc := range []struct {
		name string
		cfg  func() HostConfig
	}{
		{"naive", func() HostConfig {
			c := baseCfg(Naive)
			c.RAMBlocks, c.FlashBlocks = 2, 8
			c.RAMPolicy, c.FlashPolicy = PolicyNone, PolicyNone
			return c
		}},
		{"naive-flash-only", func() HostConfig {
			c := baseCfg(Naive)
			c.RAMBlocks, c.FlashBlocks = 0, 2
			c.FlashPolicy = PolicyNone
			return c
		}},
		{"lookaside", func() HostConfig {
			c := baseCfg(Lookaside)
			c.RAMBlocks, c.FlashBlocks = 2, 8
			c.RAMPolicy = PolicySync
			return c
		}},
		{"unified", func() HostConfig {
			c := baseCfg(Unified)
			c.RAMBlocks, c.FlashBlocks = 1, 2
			c.RAMPolicy, c.FlashPolicy = PolicyNone, PolicyNone
			return c
		}},
	} {
		for _, syncer := range []bool{false, true} {
			cfg := tc.cfg()
			if syncer {
				cfg.RAMPolicy, cfg.FlashPolicy = short, short
			}
			r := newRig(t, cfg, testTiming())
			const burst = 12
			done := 0
			for k := cache.Key(1); k <= burst; k++ {
				r.host.Write(k, func() { done++ })
			}
			r.eng.RunUntil(50 * sim.Microsecond)
			r.host.StopSyncers()
			r.eng.Run()
			st := r.host.Stats()
			if done != burst {
				t.Errorf("%s syncer=%v: %d of %d writes completed", tc.name, syncer, done, burst)
			}
			if st.EvictionRetries == 0 {
				t.Errorf("%s syncer=%v: no eviction retries", tc.name, syncer)
			}
			if syncer && st.CoalescedSkips == 0 {
				t.Errorf("%s syncer=%v: syncer skipped no in-flight block", tc.name, syncer)
			}
			checkTiers(t, r.host)
		}
	}
}
