package flashsim

import (
	"fmt"
	"testing"

	"repro/internal/rng"
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

// residencyShards are the shard counts each case runs at: the
// sequential engine and a two-shard cluster.
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
	for _, name := range []string{"crash-recovery", "churn"} {
		for _, arch := range []Architecture{Naive, Unified} {
			for _, shards := range residencyShards {
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
