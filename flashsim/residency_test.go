package flashsim

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/scenario"
)

// The holder index is the only way either executor finds the hosts to
// invalidate, so it must equal the caches' contents at every instant:
// a block missing from it keeps a stale copy alive, a block listed for a
// host that dropped it costs a wasted probe. These tests run with
// checkResidency on, which audits every index in both directions at the
// end of the run and after every scenario event and fails the run on any
// difference.

// residencyConfig is a small four-host shared-working-set fleet.
func residencyConfig() Config {
	cfg := ScaledConfig(8192)
	cfg.Hosts = 4
	cfg.ThreadsPerHost = 2
	cfg.RAMBlocks = 64
	cfg.FlashBlocks = 512
	cfg.Workload.SharedWorkingSet = true
	cfg.Workload.WorkingSetBlocks = 1024
	cfg.Workload.TotalBlocks = 16384
	cfg.checkResidency = true
	return cfg
}

// residencyShards are the shard counts each steady-state case runs at:
// the sequential engine and a two-shard cluster.
var residencyShards = []int{0, 2}

func TestResidencyIndexMatchesCaches(t *testing.T) {
	cases := map[string]func(*Config){
		"naive":     func(c *Config) { c.Arch = Naive },
		"lookaside": func(c *Config) { c.Arch = Lookaside },
		"unified":   func(c *Config) { c.Arch = Unified },
		"ram-only":  func(c *Config) { c.FlashBlocks = 0 },
		"protocol":  func(c *Config) { c.ConsistencyProtocol = true },
		"unified-protocol": func(c *Config) {
			c.Arch = Unified
			c.ConsistencyProtocol = true
		},
		"no-subset-shootdown": func(c *Config) { c.DisableSubsetShootdown = true },
		"recovered-start": func(c *Config) {
			c.PersistentFlash = true
			c.RecoveredStart = true
		},
		"2q": func(c *Config) { c.FlashReplacement = Replace2Q },
	}
	for name, edit := range cases {
		for _, shards := range residencyShards {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				cfg := residencyConfig()
				edit(&cfg)
				cfg.Shards = shards
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Invalidations == 0 {
					t.Fatalf("no invalidations: the index was never exercised\n%s", res)
				}
			})
		}
	}
}

func TestResidencyIndexAcrossScenarioEvents(t *testing.T) {
	// Scenarios always run on the cluster, and shards=0 runs the same
	// one-shard cluster, so one multi-shard cell covers each case.
	const shards = 2
	for _, name := range []string{"crash-recovery", "churn"} {
		for _, arch := range []Architecture{Naive, Unified} {
			t.Run(fmt.Sprintf("%s/%s/shards=%d", name, arch, shards), func(t *testing.T) {
				cfg := residencyConfig()
				cfg.Arch = arch
				cfg.PersistentFlash = name == "crash-recovery"
				cfg.Shards = shards
				sc, err := BuiltinScenario(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunScenario(cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Events) == 0 {
					t.Fatal("scenario ran no events")
				}
			})
		}
	}
}

// TestResidencyIndexPropertyConfigs audits the index on the random
// configurations of the sequential property matrix (same generator and
// seed), with the registry switched on so the single-host draws keep an
// index too.
func TestResidencyIndexPropertyConfigs(t *testing.T) {
	gen := rng.New(777001)
	for i := 0; i < propertyConfigs; i++ {
		cfg := randomConfig(gen)
		cfg.Hosts = 1
		cfg.TrackConsistency = true
		cfg.checkResidency = true
		t.Run(fmt.Sprintf("config%02d", i), func(t *testing.T) {
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%s: %v", describe(cfg), err)
			}
		})
	}
}

// TestResidencyIndexAcrossInjectedEvents injects a crash, a flush and a
// leave into a streaming run at three different epoch barriers. Injected
// events only start their work and let it overlap the running phase, and
// the audit runs right after each one as well as at the end.
func TestResidencyIndexAcrossInjectedEvents(t *testing.T) {
	for _, arch := range []Architecture{Naive, Unified} {
		t.Run(arch.String(), func(t *testing.T) {
			cfg := residencyConfig()
			cfg.Arch = arch
			cfg.PersistentFlash = true
			cfg.Shards = 2
			ctl := NewRunController(cfg)
			plan := map[int]ScenarioEvent{
				1: {Kind: scenario.EventCrash, Host: 0},
				3: {Kind: scenario.EventFlush, Host: 1, Fraction: 0.5},
				5: {Kind: scenario.EventLeave, Host: 2},
			}
			samples := 0
			hooks := ScenarioHooks{Sample: func(float64, []float64) {
				samples++
				if ev, ok := plan[samples]; ok {
					if err := ctl.Inject(ev); err != nil {
						t.Errorf("Inject(%+v): %v", ev, err)
					}
				}
			}}
			sc := &Scenario{Name: "injected", Phases: []ScenarioPhase{
				{Name: "warm", Blocks: 6000},
				{Name: "steady", Blocks: 6000},
			}}
			res, err := RunScenarioStream(cfg, sc, hooks, ctl)
			if err != nil {
				t.Fatal(err)
			}
			var kinds []string
			for _, e := range res.Events {
				if e.Injected {
					kinds = append(kinds, e.Kind)
				}
			}
			if fmt.Sprint(kinds) != "[crash flush leave]" {
				t.Fatalf("injected events %v after %d samples, want crash, flush, leave", kinds, samples)
			}
			if crash := res.Events[0]; crash.Dropped == 0 {
				t.Fatalf("injected crash %+v dropped no blocks", crash)
			}
		})
	}
}
