package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (e *pb) varint(num int, v uint64) {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3)
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *pb) bytes(num int, data []byte) {
	e.b = binary.AppendUvarint(e.b, uint64(num)<<3|2)
	e.b = binary.AppendUvarint(e.b, uint64(len(data)))
	e.b = append(e.b, data...)
}

func (e *pb) msg(num int, build func(*pb)) {
	var m pb
	build(&m)
	e.bytes(num, m.b)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// fixedProfile builds a CPU profile whose module split is known:
//
//	30 ms  mapaccess <- Peek (cache, inlined into) BlockWritten (consistency) <- Host.write (core) <- Engine.Run (sim) <- main
//	20 ms  Host.write <- Engine.Run <- Host.write <- main        (core twice on one stack)
//	10 ms  gcBgMarkWorker                                       (no repository frame)
//	 5 ms  Engine.Run <- main, location ids not packed
func fixedProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mapaccess2_fast64",
		"repro/internal/cache.(*LRU).Peek",
		"repro/internal/consistency.(*Registry).BlockWritten",
		"repro/internal/core.(*Host).write",
		"repro/internal/sim.(*Engine).Run",
		"main.main",
		"runtime.gcBgMarkWorker",
	}
	var p pb
	p.msg(1, func(m *pb) { m.varint(1, 1); m.varint(2, 2) })
	p.msg(1, func(m *pb) { m.varint(1, 3); m.varint(2, 4) })
	sample := func(ns uint64, locs ...uint64) {
		p.msg(2, func(m *pb) {
			m.bytes(1, packed(locs...))
			m.bytes(2, packed(1, ns))
		})
	}
	sample(30e6, 1, 2, 3, 4, 5)
	sample(20e6, 3, 4, 3, 5)
	sample(10e6, 6)
	p.msg(2, func(m *pb) {
		m.varint(1, 4)
		m.varint(1, 5)
		m.bytes(2, packed(1, 5e6))
	})
	// Location 2 holds Peek inlined into BlockWritten, innermost first.
	locFuncs := [][]uint64{{1}, {2, 3}, {4}, {5}, {6}, {7}}
	for i, fns := range locFuncs {
		p.msg(4, func(m *pb) {
			m.varint(1, uint64(i+1))
			for _, fn := range fns {
				m.msg(4, func(l *pb) { l.varint(1, fn); l.varint(2, 10) })
			}
		})
	}
	for id := 1; id <= 7; id++ {
		p.msg(5, func(m *pb) { m.varint(1, uint64(id)); m.varint(2, uint64(id+4)) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.varint(12, 10e6)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeFixedProfile(t *testing.T) {
	a := newAttribution()
	if err := a.add(fixedProfile(t)); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want map[string]float64) {
		t.Helper()
		for m := range got {
			if _, ok := want[m]; !ok {
				t.Errorf("%s[%s] = %g, want absent", kind, m, got[m])
			}
		}
		for m, w := range want {
			if math.Abs(got[m]-w) > 1e-12 {
				t.Errorf("%s[%s] = %g, want %g", kind, m, got[m], w)
			}
		}
	}
	check("self", a.self, map[string]float64{"cache": 0.030, "core": 0.020, "other": 0.010, "sim": 0.005})
	check("cum", a.cum, map[string]float64{
		"cache": 0.030, "consistency": 0.030, "core": 0.050, "sim": 0.055, "bench": 0.055,
	})
	if math.Abs(a.total-0.065) > 1e-12 {
		t.Errorf("total = %g, want 0.065", a.total)
	}
}

func TestModule(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*LRU).Peek":              "cache",
		"repro/internal/runner/pool.(*Queue).run.func1": "pool",
		"repro/flashsim.Run":                            "flashsim",
		"main.(*daemonRunner).op":                       "bench",
		"repro/perfbench.TestModule":                    "bench",
		"type:.eq.repro/internal/cache.Key":             "",
		"net/http.(*conn).serve":                        "",
		"runtime.mallocgc":                              "",
	} {
		if got := module(fn); got != want {
			t.Errorf("module(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeRuntimeProfile decodes a profile written by runtime/pprof,
// so the decoder keeps up with the encoder it reads in the benchmark.
func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	start := readCounters().cpu
	x := 1.0
	for readCounters().cpu-start < 0.3 {
		for i := 0; i < 1e5; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	pprof.StopCPUProfile()
	a := newAttribution()
	if err := a.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if a.total <= 0 || a.self["bench"] <= 0 {
		t.Fatalf("profile of %g s charged %g s to bench (x=%g)", a.total, a.self["bench"], x)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		isOK bool
	}{{200, 0.9, true}, {100, 0.9, true}, {50, 0.8, true}, {25, 0.6, true}, {20, 0.5, false}, {5, 0, false}} {
		q, ok := tailQuantile(c.n)
		if ok != c.isOK || (ok && math.Abs(q-c.q) > 1e-9) {
			t.Errorf("tailQuantile(%d) = %g, %t; want %g, %t", c.n, q, ok, c.q, c.isOK)
		}
	}
}
