package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opSample is the measured cost of one successful operation.
type opSample struct {
	wall, cpu       float64 // seconds
	unstolen        float64 // share of wall during which no CPU was stolen
	allocBytes      float64
	allocs          float64
	gcCPU, gcCycles float64
	blocks          float64
	layer           map[string]float64
}

// measure runs rounds of operations for about budget, cycling through
// the run's inputs: it starts another round only while the previous
// round's duration still fits, and always runs at least one. A round is
// one untraced operation, or, with prof non-nil, an untraced and then a
// traced one on the same input, so that both kinds see the same host
// conditions; the traced one runs under a CPU profile that prof
// accumulates. Failed or mismatching operations are counted by chk and
// left out of the returned samples.
func measure(r runner, budget time.Duration, chk *checker, prof *attribution) (plain, traced []opSample, err error) {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		j := n % inputsPerRun
		if s, ok, _ := runOp(r, j, nil, chk); ok {
			plain = append(plain, s)
		}
		if prof != nil {
			s, ok, err := runOp(r, j, prof, chk)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				traced = append(traced, s)
			}
		}
		last = time.Since(t0)
	}
	return plain, traced, nil
}

// runOp runs and measures one operation on input j; with prof non-nil it
// turns on the program's self-profiling and charges a CPU profile of the
// operation to prof. ok is false when the operation failed; err reports a
// profiling failure.
func runOp(r runner, j int, prof *attribution, chk *checker) (s opSample, ok bool, err error) {
	runtime.GC() // each operation starts from the same heap
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return s, false, fmt.Errorf("cpu profile: %w", err)
		}
	}
	ticks := readCPUTicks() // outside the counters: it allocates
	before := readCounters()
	t0 := time.Now()
	res, opErr := r.op(j, prof != nil)
	wall := time.Since(t0)
	after := readCounters()
	unstolen := readCPUTicks().unstolen(ticks)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.add(buf.Bytes()); err != nil {
			return s, false, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if !chk.record(j, res.digest, opErr) {
		return s, false, nil
	}
	return opSample{
		wall:       wall.Seconds(),
		cpu:        after.cpu - before.cpu,
		unstolen:   unstolen,
		allocBytes: after.allocBytes - before.allocBytes,
		allocs:     after.allocs - before.allocs,
		gcCPU:      after.gcCPU - before.gcCPU,
		gcCycles:   after.gcCycles - before.gcCycles,
		blocks:     float64(res.blocks),
		layer:      res.layer,
	}, true, nil
}

// netWall is the part of the operation's wall time during which the
// hypervisor stole no CPU from this virtual machine: about the time the
// operation would take on an uncontended host. On a shared two-vCPU
// machine steal swings between 0 and a third of CPU time within minutes,
// and raw wall times with it; shards in lockstep stall whenever either
// CPU is stolen, hence the product over CPUs.
func (o opSample) netWall() float64 { return o.wall * o.unstolen }

// counters are the process-wide cumulative costs an operation is charged
// from: CPU time from getrusage, heap allocation and GC from
// runtime/metrics.
type counters struct {
	cpu, allocBytes, allocs, gcCPU, gcCycles float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return counters{cpu: cpu, allocBytes: v[0], allocs: v[1], gcCPU: v[2], gcCycles: v[3]}
}

// cpuTicks are /proc/stat's time counters of each CPU, in clock ticks:
// the time the hypervisor gave to other guests ("steal") and the total.
type cpuTicks []struct{ steal, total uint64 }

// readCPUTicks reads every CPU's counters; nil where /proc/stat is
// missing or has no steal column.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var t cpuTicks
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] == "cpu" || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		var c struct{ steal, total uint64 }
		// user, nice, system, idle, iowait, irq, softirq, steal; guest
		// time is already in user and nice.
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil
			}
			c.total += v
			if i == 7 {
				c.steal = v
			}
		}
		t = append(t, c)
	}
	return t
}

// stolen is the share of all CPUs' time stolen between before and t; 0
// when unknown.
func (t cpuTicks) stolen(before cpuTicks) float64 {
	if len(t) != len(before) {
		return 0
	}
	var steal, total uint64
	for i := range t {
		steal += t[i].steal - before[i].steal
		total += t[i].total - before[i].total
	}
	if total == 0 {
		return 0
	}
	return float64(steal) / float64(total)
}

// unstolen estimates the share of the interval between before and t in
// which no CPU was stolen: the product over CPUs of the share each was
// not, taking steal to hit CPUs independently. A CPU that idled has
// nothing stolen. 1 when unknown.
func (t cpuTicks) unstolen(before cpuTicks) float64 {
	if len(t) != len(before) {
		return 1
	}
	u := 1.0
	for i := range t {
		if total := t[i].total - before[i].total; total > 0 {
			u *= 1 - float64(t[i].steal-before[i].steal)/float64(total)
		}
	}
	return u
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile picks the reported tail percentile for n samples: p90 when
// at least ten samples lie beyond it, else the highest whole percentile
// that has ten beyond it. ok is false when that would not exceed the
// median.
func tailQuantile(n int) (q float64, ok bool) {
	if float64(n)*0.1 >= 10 {
		return 0.9, true
	}
	q = math.Floor((1-10/float64(n))*100) / 100
	return q, q > 0.5
}

// column extracts one value per operation.
func column(ops []opSample, f func(opSample) float64) []float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return xs
}

func median(ops []opSample, f func(opSample) float64) float64 {
	if len(ops) == 0 {
		return 0
	}
	return quantile(column(ops, f), 0.5)
}

// layerMedian is the median of one per-layer value over the operations
// that reported it (0 when none did).
func layerMedian(ops []opSample, key string) float64 {
	var xs []float64
	for _, o := range ops {
		if v, ok := o.layer[key]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}
