package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// layers are the benchmark's host-time buckets, in report order.
var layers = []string{"workload", "cpu", "memsys", "prefetch", "other"}

// layerOfPackage maps a tagprefetch/internal package to its layer; the
// machine assembly, checkpoint, experiment and support packages, the Go
// runtime and the standard library all count as "other".
func layerOfPackage(pkg string) string {
	switch pkg {
	case "workload", "xrand":
		return "workload"
	case "cpu", "branch":
		return "cpu"
	case "memsys", "cache", "bus", "dram", "addr", "trace":
		return "memsys"
	case "core", "dbcp", "prefetch":
		return "prefetch"
	}
	return "other"
}

// layerOfFunction maps a fully qualified Go function name, such as
// "tagprefetch/internal/memsys.(*MemSys).Access", to its layer.
func layerOfFunction(name string) string {
	const prefix = "tagprefetch/internal/"
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return "other"
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return layerOfPackage(rest)
}

// cpuProfile is the layer split of a CPU profile.
type cpuProfile struct {
	shares  map[string]float64 // layer -> share of samples
	samples int
	others  []string // the heaviest leaf functions outside the four layers
}

// profileShares runs fn under the CPU profiler and splits its samples by
// the layer of their leaf frame.
func profileShares(fn func()) (cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuProfile{}, err
	}
	fn()
	pprof.StopCPUProfile()
	counts, err := leafCounts(buf.Bytes())
	if err != nil {
		return cpuProfile{}, fmt.Errorf("decode profile: %w", err)
	}
	p := cpuProfile{shares: make(map[string]float64)}
	var others []string
	for name, n := range counts {
		l := layerOfFunction(name)
		p.shares[l] += float64(n)
		p.samples += int(n)
		if l == "other" {
			others = append(others, name)
		}
	}
	if p.samples == 0 {
		return cpuProfile{}, fmt.Errorf("profile holds no samples")
	}
	for l := range p.shares {
		p.shares[l] /= float64(p.samples)
	}
	sort.Slice(others, func(i, j int) bool { return counts[others[i]] > counts[others[j]] })
	for _, name := range others[:min(len(others), 5)] {
		p.others = append(p.others, fmt.Sprintf("%s %.3f", name, float64(counts[name])/float64(p.samples)))
	}
	return p, nil
}

// leafCounts decodes a gzipped profile.proto and returns, per leaf
// function name, the number of samples. Only the fields this needs are
// read: Profile.sample (2), .location (4), .function (5) and
// .string_table (6); Sample.location_id (1) and .value (2); Location.id
// (1) and .line (4); Line.function_id (1); Function.id (1) and .name (2).
// The first line of a location is its innermost inlined function.
func leafCounts(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = make(map[uint64]int64)  // function id -> string index
		locFunc   = make(map[uint64]uint64) // location id -> leaf function id
		leafLocs  []uint64
		leafCount []int64
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				leafLocs = append(leafLocs, locs[0])
				leafCount = append(leafCount, vals[0])
			}
		case 4: // location
			var id, fn uint64
			seen := false
			if err := eachField(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen:
					seen = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for i, loc := range leafLocs {
		name := "?"
		if si, ok := funcName[locFunc[loc]]; ok && si >= 0 && si < int64(len(strs)) {
			name = strs[si]
		}
		out[name] += leafCount[i]
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks the top-level fields of a protobuf message, passing
// varints as v and length-delimited payloads as b.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
	}
	return nil
}
