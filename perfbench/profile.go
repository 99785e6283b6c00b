package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The per-layer CPU budget: every profile sample is charged to one layer.
// Layers are the module's packages, with policy split into its two
// replacement structures.
const (
	layerRuntime = "runtime" // no addrxlat frame: GC, scheduler, idle
	layerOther   = "other"   // addrxlat packages outside the layer map
)

// cpuLayers are the layers reported as <layer>.cpu_s, in output order.
var cpuLayers = []string{
	"policy.stack", "policy.lru", "tlb", "core", "hashutil", "bitpack", "dense",
	"mm", "workload", "experiments", "explain", "serve", "xtrace", layerOther, layerRuntime,
}

// layerAlias folds helper packages into the layer that drives them.
var layerAlias = map[string]string{
	"parallel": "experiments", // the sweep worker pool
	"metrics":  "serve",       // the serve window collector
	"hist":     "xtrace",      // trace latency histograms
}

const internalPrefix = "addrxlat/internal/"

// frameLayer maps one symbolized frame to its layer. ok is false for
// frames outside addrxlat and for hashutil.RNG, whose cost belongs to the
// layer that draws the random numbers.
func frameLayer(fn string) (layer string, ok bool) {
	rest, found := strings.CutPrefix(fn, internalPrefix)
	if !found {
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "hashutil":
		if strings.HasPrefix(rest, "hashutil.(*RNG).") || rest == "hashutil.NewRNG" {
			return "", false
		}
	case "policy":
		if strings.Contains(rest, "RecencyStack") {
			return "policy.stack", true
		}
		return "policy.lru", true
	}
	if a, ok := layerAlias[pkg]; ok {
		return a, true
	}
	for _, l := range cpuLayers {
		if l == pkg {
			return l, true
		}
	}
	return layerOther, true
}

// stackLayer charges a sample to the innermost frame that maps to a
// layer, so runtime helpers (duffcopy, mallocgc, memmove) go to their
// caller; a stack with no such frame goes to runtime. stack lists
// function names innermost first.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	return layerRuntime
}

// cpuProfile is the part of a runtime/pprof CPU profile the budget needs:
// each sample's symbolized stack (innermost first, inlined frames
// expanded), its CPU nanoseconds, and its string labels.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// attribution is a profile charged to layers.
type attribution struct {
	layerNanos map[string]int64
	// algNanos sums samples per addrxlat_alg pprof label (set by the
	// pipelined row executor's workers).
	algNanos map[string]int64
	total    int64
}

func (p *cpuProfile) attribute() attribution {
	a := attribution{layerNanos: map[string]int64{}, algNanos: map[string]int64{}}
	for _, s := range p.samples {
		a.layerNanos[stackLayer(s.stack)] += s.nanos
		if alg := s.labels["addrxlat_alg"]; alg != "" {
			a.algNanos[alg] += s.nanos
		}
		a.total += s.nanos
	}
	return a
}

// parseCPUProfile decodes the gzipped profile.proto that
// pprof.StartCPUProfile writes. It reads only the fields the budget uses:
// sample_type, sample, location, function and string_table.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, labelKeys, labelStrs []uint64
		values                     []int64
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ uint64
			if err := eachField(b, func(n, _ int, x uint64, _ []byte) error {
				if n == 1 {
					typ = x
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case 2: // sample: location_id=1, value=2, label=3
			var s rawSample
			if err := eachField(b, func(n, w int, x uint64, bb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, w, x, bb)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, x, bb); err != nil {
						return err
					}
					for _, u := range vs {
						s.values = append(s.values, int64(u))
					}
				case 3: // Label{key=1, str=2}
					var key, str uint64
					if err := eachField(bb, func(ln, _ int, lx uint64, _ []byte) error {
						switch ln {
						case 1:
							key = lx
						case 2:
							str = lx
						}
						return nil
					}); err != nil {
						return err
					}
					s.labelKeys = append(s.labelKeys, key)
					s.labelStrs = append(s.labelStrs, str)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fns []uint64
			if err := eachField(b, func(n, _ int, x uint64, bb []byte) error {
				switch n {
				case 1:
					id = x
				case 4:
					return eachField(bb, func(ln, _ int, lx uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lx)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function: id=1, name=2
			var id, name uint64
			if err := eachField(b, func(n, _ int, x uint64, _ []byte) error {
				switch n {
				case 1:
					id = x
				case 2:
					name = x
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry [samples/count, cpu/nanoseconds].
	nanosIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			nanosIdx = i
		}
	}
	if nanosIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, rs := range samples {
		if nanosIdx >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := cpuSample{nanos: rs.values[nanosIdx]}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		for i, k := range rs.labelKeys {
			if s.labels == nil {
				s.labels = map[string]string{}
			}
			s.labels[str(k)] = str(rs.labelStrs[i])
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, handing varints in
// v and length-delimited payloads in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which the encoder writes
// either packed (one length-delimited run) or as one varint per value.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
