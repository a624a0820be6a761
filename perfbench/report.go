package main

import (
	"fmt"
	"math"
	"strings"
)

// endToEnd computes the end-to-end metrics of an untraced run from the
// median set-up time, net of steal, and the operations. Every workload
// reports all of them; the daemon's operation is one round trip.
func endToEnd(setup float64, ops []opSample) []metric {
	return []metric{
		{"setup_s", "s", setup},
		{"run_s", "s", median(ops, opSample.netWall)},
		{"blocks_per_s", "blocks/s", median(ops, func(o opSample) float64 { return o.blocks / o.netWall() })},
		{"cpu_s", "s", median(ops, func(o opSample) float64 { return o.cpu })},
		{"max_rss_mb", "MB", maxRSSMB()},
		{"alloc_mb", "MB", median(ops, func(o opSample) float64 { return o.allocBytes / 1e6 })},
		{"allocs", "count", median(ops, func(o opSample) float64 { return o.allocs })},
	}
}

// endToEndExtras renders the end-to-end metrics that are not on the
// result line: the error rate (the result line carries attempted and
// failed) and the daemon's latency percentiles, which exist only on the
// daemon workload.
func endToEndExtras(ops []opSample, chk *checker, daemon bool) []string {
	walls := column(ops, func(o opSample) float64 { return o.wall })
	lines := []string{
		fmt.Sprintf("%-40s %16.6g ratio (%d of %d operations failed)",
			"error_rate", float64(chk.failed)/float64(chk.attempted), chk.failed, chk.attempted),
		fmt.Sprintf("raw operation wall time over n=%d: min %.4g s, quartiles %.4g / %.4g / %.4g s, max %.4g s; median share with no CPU stolen %.1f%%",
			len(walls), quantile(walls, 0), quantile(walls, 0.25), quantile(walls, 0.5), quantile(walls, 0.75), quantile(walls, 1),
			100*median(ops, func(o opSample) float64 { return o.unstolen })),
	}
	if !daemon {
		return lines
	}
	pcts := []struct {
		name string
		f    func(opSample) float64
	}{
		{"roundtrip", func(o opSample) float64 { return o.wall * 1e3 }},
		{"first_sample", func(o opSample) float64 { return o.layer["first_sample_ms"] }},
	}
	for _, p := range pcts {
		xs := column(ops, p.f)
		lines = append(lines, fmt.Sprintf("%-40s %16.6g ms (n=%d)", p.name+"_p50_ms", quantile(xs, 0.5), len(xs)))
		if q, ok := tailQuantile(len(xs)); ok {
			name := fmt.Sprintf("%s_p%d_ms", p.name, int(math.Round(q*100)))
			lines = append(lines, fmt.Sprintf("%-40s %16.6g ms (n=%d, %d beyond)",
				name, quantile(xs, q), len(xs), int(float64(len(xs))*(1-q))))
		} else {
			lines = append(lines, fmt.Sprintf("%-40s %16s (n=%d: fewer than ten samples beyond any tail percentile)",
				p.name+"_tail_ms", "n/a", len(xs)))
		}
	}
	return lines
}

// layerMetrics lists the per-layer metrics in output order with units.
// Modules are package names; see attribution for self and cum.
var layerMetrics = []struct{ name, unit string }{
	{"consistency.cum_s", "s"},
	{"consistency.self_s", "s"},
	{"cache.self_s", "s"},
	{"sim.self_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"core.self_s", "s"},
	{"core.exec_s", "s"},
	{"core.barrier_wait_s", "s"},
	{"core.barrier_share", "ratio"},
	{"core.merge_s", "s"},
	{"core.imbalance", "ratio"},
	{"filer.phase1_s", "s"},
	{"filer.phase2_s", "s"},
	{"netsim.self_s", "s"},
	{"filer.self_s", "s"},
	{"tracegen.self_s", "s"},
	{"rng.self_s", "s"},
	{"stats.self_s", "s"},
	{"serve.self_s", "s"},
	{"serve.cum_s", "s"},
	{"serve.submit_ms", "ms"},
	{"serve.hello_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.report_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.frames", "count"},
	{"serve.stream_kb", "KB"},
	{"runtime.gc_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"bench.self_s", "s"},
	{"other.self_s", "s"},
	{"sim.events", "count"},
	{"core.epochs", "count"},
	{"core.barrier_messages", "count"},
	{"core.filer_fetches", "count"},
	{"core.flash_fills", "count"},
	{"core.writebacks", "count"},
	{"filer.reads", "count"},
	{"filer.writes", "count"},
	{"consistency.invalidations", "count"},
	{"cache.ram_hit_ratio", "ratio"},
	{"cache.flash_hit_ratio", "ratio"},
	{"filer.slow_read_ratio", "ratio"},
	{"consistency.invalidating_write_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// perLayer computes the per-layer metrics: module times per traced
// operation from the profile, the operations' own counts and spans
// (medians over the traced operations), GC cost from runtime/metrics, and
// the tracing overhead against the untraced operations.
func perLayer(plain, profiled []opSample, attr *attribution) []metric {
	nops := float64(len(profiled))
	plainWall := median(plain, opSample.netWall)
	profWall := median(profiled, opSample.netWall)
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		var v float64
		mod, kind, _ := strings.Cut(lm.name, ".")
		switch {
		case kind == "self_s" && nops > 0:
			v = attr.self[mod] / nops
		case kind == "cum_s" && nops > 0:
			v = attr.cum[mod] / nops
		case lm.name == "sim.ns_per_event":
			if ev := layerMedian(plain, "sim.events"); ev > 0 {
				v = plainWall / ev * 1e9
			}
		case lm.name == "runtime.gc_s":
			v = median(profiled, func(o opSample) float64 { return o.gcCPU })
		case lm.name == "runtime.gc_cycles":
			v = median(profiled, func(o opSample) float64 { return o.gcCycles })
		case lm.name == "trace.overhead_frac":
			if plainWall > 0 {
				v = profWall/plainWall - 1
			}
		default:
			v = layerMedian(profiled, lm.name)
		}
		out = append(out, metric{lm.name, lm.unit, v})
	}
	return out
}
