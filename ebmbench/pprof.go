package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuPackages are the packages CPU time is charged to, named after the
// repository's modules. Samples whose innermost repo frame lies in any
// other repo package (or in this benchmark) go to "other"; samples with
// no repo frame at all, such as GC workers, go to "runtime".
var cpuPackages = []string{
	"gpu", "cache", "mem", "icnt", "dram", "kernel", "sim", "stats", "tlp",
	"core", "metrics", "search", "runner", "profile", "experiments",
	"simcache", "ckpt", "other", "runtime",
}

// startProfile starts this process's CPU profile; the returned stop
// function ends it and leaves the encoded profile in *dst.
func startProfile(dst *[]byte) (func(), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		*dst = buf.Bytes()
	}, nil
}

// foldFrame charges a stack, given as function names innermost first, to
// a package: the innermost frame of the repository's module decides.
func foldFrame(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "ebm/internal/"); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, p := range cpuPackages {
				if p == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "ebm.") || strings.HasPrefix(fn, "ebm/") || strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	return "runtime"
}

// foldProfile decodes a gzipped pprof CPU profile and returns the CPU
// seconds charged to each package by foldFrame.
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	col := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := map[string]float64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		if col < len(s.values) {
			out[foldFrame(stack)] += float64(s.values[col]) / 1e9
		}
	}
	return out, nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the profile.proto fields foldProfile reads:
// Profile{1: sample_type, 2: sample, 4: location, 5: function,
// 6: string_table}, ValueType{1: type}, Sample{1: location_id, 2: value},
// Location{1: id, 4: line}, Line{1: function_id}, Function{1: id, 2: name}.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(b, func(f int, v uint64, msg []byte) error {
		switch f {
		case 1:
			var typ int64
			err := walk(msg, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2:
			var s sample
			err := walk(msg, func(f int, v uint64, packed []byte) error {
				switch f {
				case 1:
					return repeated(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(msg, func(f int, v uint64, line []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(line, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walk(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// walk calls fn for every field of a protobuf message: v is a varint or
// fixed-width value, msg the payload of a length-delimited field (nil
// otherwise).
func walk(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
			if msg == nil {
				msg = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// repeated feeds a repeated varint field to add, whether it was encoded
// as one value (packed == nil) or packed.
func repeated(v uint64, packed []byte, add func(uint64)) error {
	if packed == nil {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
