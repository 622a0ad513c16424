package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layers are the program modules a CPU sample can be charged to, in the
// order the per-layer metrics list them. "bench" is this package's own
// code, "other" any other repro package (media, lab), and "go" a sample
// with no repro frame at all: the garbage collector and the scheduler.
var layers = []string{"sim", "rtm", "disk", "ufs", "core", "cluster", "bench", "other", "go"}

// layerOf classifies one function name, or returns "" for a frame that
// belongs to no repro package (the runtime, the standard library).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/")
	if !ok {
		return ""
	}
	if pkg, ok := strings.CutPrefix(rest, "internal/"); ok {
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "sim", "rtm", "disk", "ufs", "core", "cluster":
			return pkg
		}
	}
	return "other"
}

// cpuByLayer reads a CPU profile written by runtime/pprof and charges each
// sample to the innermost frame that belongs to a repro package.
func cpuByLayer(path string) (map[string]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	out := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		layer := "go"
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				if l := layerOf(p.strings[p.funcName[fid]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the protobuf encoding of a pprof profile: samples
// (field 2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, sub); err != nil {
						return err
					}
					if len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or, for length-delimited fields, its bytes
// (sub is nil for every other wire type).
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)] // never nil, even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}
