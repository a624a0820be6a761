package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// attribution is a CPU profile's time charged to the repository's
// modules, in seconds. A sample's self module is its innermost frame in a
// repository package; runtime and standard-library frames fold into their
// nearest repository caller, and a sample with no repository frame at all
// is charged to "other". cum charges the sample once to every repository
// module on its stack. The benchmark's own package counts as "bench".
type attribution struct {
	self, cum map[string]float64
	total     float64
}

// module names the repository module a function belongs to: the last
// element of its package path, "bench" for this benchmark's main
// package (named "main" in the benchmark binary and by its import path
// in a test binary), and "" for everything outside the repository.
func module(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
		return "bench"
	}
	if !strings.HasPrefix(fn, "repro/") {
		return ""
	}
	// Repository package paths contain no dots, so the first one ends
	// the path.
	pkg, _, _ := strings.Cut(fn, ".")
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

func newAttribution() *attribution {
	return &attribution{self: map[string]float64{}, cum: map[string]float64{}}
}

// add charges a gzipped pprof CPU profile (as runtime/pprof writes it) to
// modules.
func (a *attribution) add(profile []byte) error {
	p, err := decodeProfile(profile)
	if err != nil {
		return err
	}
	var stack []string
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			return errors.New("profile: sample without a cpu value")
		}
		sec := float64(s.values[p.valueIndex]) / 1e9
		a.total += sec
		stack = stack[:0]
		for _, id := range s.locations { // leaf first
			for _, fn := range p.locations[id] { // innermost first
				if m := module(p.functions[fn]); m != "" {
					stack = append(stack, m)
				}
			}
		}
		if len(stack) == 0 {
			a.self["other"] += sec
			continue
		}
		a.self[stack[0]] += sec
		for i, m := range stack {
			if !contains(stack[:i], m) {
				a.cum[m] += sec
			}
		}
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// lines renders every module's self and cum time per operation, largest
// self first.
func (a *attribution) lines(nops int) []string {
	mods := make([]string, 0, len(a.self))
	for m := range a.cum {
		mods = append(mods, m)
	}
	if _, ok := a.self["other"]; ok {
		mods = append(mods, "other")
	}
	sort.Slice(mods, func(i, j int) bool {
		if a.self[mods[i]] != a.self[mods[j]] {
			return a.self[mods[i]] > a.self[mods[j]]
		}
		return mods[i] < mods[j]
	})
	out := []string{fmt.Sprintf("profile: %.3f s of samples over %d operations; per operation:", a.total, nops)}
	for _, m := range mods {
		out = append(out, fmt.Sprintf("  %-14s self %9.4f s (%5.1f%%)   cum %9.4f s (%5.1f%%)",
			m, a.self[m]/float64(nops), 100*a.self[m]/a.total, a.cum[m]/float64(nops), 100*a.cum[m]/a.total))
	}
	return out
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	valueIndex int                 // index of the cpu/nanoseconds value
	samples    []profileSample     //
	locations  map[uint64][]uint64 // location id -> function ids, innermost first
	functions  map[uint64]string   // function id -> name
}

type profileSample struct {
	locations []uint64
	values    []int64
}

// decodeProfile reads the fields of a gzipped profile.proto message that
// attribution needs, with the standard library alone.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{valueIndex: -1, locations: map[uint64][]uint64{}}
	var (
		strs       []string
		sampleType [][2]uint64 // (type, unit) string indices
		funcNames  = map[uint64]uint64{}
	)
	err = walk(raw, func(f field) error {
		switch f.num {
		case 1: // sample_type
			var vt [2]uint64
			err := walk(f.data, func(g field) error {
				if g.num == 1 || g.num == 2 {
					vt[g.num-1] = g.val
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s profileSample
			err := walk(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // line
					return walk(g.data, func(l field) error {
						if l.num == 1 {
							fns = append(fns, l.val)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := walk(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for i, vt := range sampleType {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p.functions = make(map[uint64]string, len(funcNames))
	for id, name := range funcNames {
		p.functions[id] = str(name)
	}
	return p, nil
}

// field is one protobuf field: varint fields carry val, length-delimited
// ones data.
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// uints yields a repeated integer field's values in either encoding:
// packed (length-delimited) or one varint per field.
func (f field) uints(yield func(uint64)) error {
	if f.wire == 0 {
		yield(f.val)
		return nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(v)
		b = b[n:]
	}
	return nil
}

// walk calls fn for every field of a protobuf message.
func walk(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}
