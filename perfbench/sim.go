package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/flashsim"
)

// simConfig is a simulation workload's Config plus the trace volume in
// blocks that every Run must at least issue.
type simConfig struct {
	cfg    flashsim.Config
	volume int64
}

// paperConfig is the paper's §4 baseline at 1:32 on the sequential
// engine: one host with eight threads, 65,536 RAM and 524,288 flash
// blocks, a 491,520-block working set and 30% writes.
func paperConfig(seed uint64) simConfig {
	cfg := flashsim.ScaledConfig(32)
	cfg.Workload.Seed, cfg.Seed = seed, seed
	return simConfig{cfg, 4 * cfg.Workload.WorkingSetBlocks}
}

// fleetConfig is 1024 hosts with two threads each on a shared 8 GB
// working set at 1:4096, each host caching 0.25 GB in RAM and 2 GB in
// flash, 512 trace blocks per host; shards 0 runs it on the sequential
// engine, more on the cluster.
func fleetConfig(seed uint64, shards int) simConfig {
	const scale = 4096
	cfg := flashsim.ScaledConfig(scale)
	cfg.Hosts = 1024
	cfg.ThreadsPerHost = 2
	cfg.RAMBlocks = int(0.25 * float64(flashsim.BlocksPerGB) / scale)
	cfg.FlashBlocks = 2 * flashsim.BlocksPerGB / scale
	cfg.Workload.SharedWorkingSet = true
	cfg.Workload.WorkingSetBlocks = 8 * int64(flashsim.BlocksPerGB) / scale
	cfg.Workload.TotalBlocks = 512 * int64(cfg.Hosts)
	cfg.Workload.Seed, cfg.Seed = seed, seed
	cfg.Shards = shards
	return simConfig{cfg, cfg.Workload.TotalBlocks}
}

// simSetup builds a simulation workload's inputs: for each, the Config
// and the synthetic file-server model, generated once (as parameter
// sweeps share one) with the parameters Run would use for it.
func simSetup(mk func(seed uint64) simConfig) func(seed uint64) (runner, error) {
	return func(seed uint64) (runner, error) {
		r := &simRunner{}
		for j := range r.inputs {
			sc := mk(inputSeed(seed, j))
			w := &sc.cfg.Workload
			fs, err := flashsim.GenerateFileSet(5*w.WorkingSetBlocks, w.Seed+1000)
			if err != nil {
				return nil, err
			}
			w.FileSet = fs
			r.inputs[j] = sc
		}
		return r, nil
	}
}

// simRunner runs one flashsim.Run per operation.
type simRunner struct{ inputs [inputsPerRun]simConfig }

func (r *simRunner) shards() int { return r.inputs[0].cfg.Shards }
func (r *simRunner) close()      {}

func (r *simRunner) op(j int, traced bool) (opResult, error) {
	sc := r.inputs[j]
	sc.cfg.WallProfile = traced
	res, err := flashsim.Run(sc.cfg)
	if err != nil {
		return opResult{}, err
	}
	if int64(res.BlocksIssued) < sc.volume || res.OpsCompleted == 0 {
		return opResult{}, fmt.Errorf("run issued %d blocks in %d ops, want at least %d blocks",
			res.BlocksIssued, res.OpsCompleted, sc.volume)
	}
	return opResult{digest: resultDigest(res), blocks: res.BlocksIssued, layer: simLayer(res)}, nil
}

// resultDigest hashes the simulated results: Result.String() without its
// wall-clock "runtime:" line.
func resultDigest(res *flashsim.Result) string {
	h := sha256.New()
	for _, line := range strings.SplitAfter(res.String(), "\n") {
		if !strings.HasPrefix(line, "runtime:") {
			h.Write([]byte(line))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simLayer maps a Result's counters, ratios and wall profile onto the
// per-layer metric names.
func simLayer(res *flashsim.Result) map[string]float64 {
	reads := res.FilerFastReads + res.FilerSlowReads
	m := map[string]float64{
		"sim.events":                           float64(res.Events),
		"core.epochs":                          float64(res.Epochs),
		"core.barrier_messages":                float64(res.BarrierMessages),
		"core.filer_fetches":                   float64(res.Hosts.FilerFetches),
		"core.flash_fills":                     float64(res.Hosts.FlashFills),
		"core.writebacks":                      float64(res.Hosts.FilerWritebacks),
		"filer.reads":                          float64(reads + res.FilerObjectReads),
		"filer.writes":                         float64(res.FilerWrites),
		"consistency.invalidations":            float64(res.Invalidations),
		"cache.ram_hit_ratio":                  res.RAMHitRate,
		"cache.flash_hit_ratio":                res.FlashHitRate,
		"filer.slow_read_ratio":                ratio(res.FilerSlowReads, reads),
		"consistency.invalidating_write_ratio": res.InvalidationFraction,
	}
	if wp := res.WallProfile; wp != nil {
		m["core.exec_s"] = float64(wp.ExecTotalNanos()) / 1e9
		m["core.barrier_wait_s"] = float64(wp.BarrierWaitNanos) / 1e9
		m["core.barrier_share"] = wp.BarrierShare()
		m["core.merge_s"] = float64(wp.MergeNanos) / 1e9
		m["core.imbalance"] = wp.Imbalance()
		m["filer.phase1_s"] = float64(wp.FilerPhase1Nanos) / 1e9
		m["filer.phase2_s"] = float64(wp.FilerPhase2Nanos) / 1e9
	}
	return m
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
