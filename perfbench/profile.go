package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one decoded CPU profile sample: its stack, leaf first,
// with inlined frames expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	ns    int64
}

// parseCPUProfile decodes the gzipped protobuf that runtime/pprof
// writes (the profile.proto schema), keeping only what attribution
// needs: each sample's function names and its nanoseconds value.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.vals = appendPacked(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		var cs cpuSample
		cs.ns = int64(s.vals[len(s.vals)-1]) // [samples, cpu ns]: the last value is time
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && i < int64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendPacked appends a repeated integer field in either encoding:
// a single varint, or a packed run inside a length-delimited field.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its integer value or, for length-delimited fields,
// its bytes (b is nil for integer fields).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// attribution is a profile reduced to what the layer table reports.
type attribution struct {
	totalNS int64
	selfNS  map[string]int64 // module -> self (leaf) CPU time
	gcNS    int64            // samples with a garbage-collector frame
	schedNS int64            // samples with a scheduler frame
	emuNS   int64            // samples with a udpemu frame anywhere
	emuSys  int64            // ... of which the leaf is a syscall
}

func attribute(samples []cpuSample) attribution {
	a := attribution{selfNS: map[string]int64{}}
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		a.totalNS += s.ns
		leaf := moduleOf(s.stack[0])
		a.selfNS[leaf] += s.ns
		var gc, sched, emu bool
		for _, f := range s.stack {
			gc = gc || gcFrame(f)
			sched = sched || schedFrame(f)
			emu = emu || moduleOf(f) == "udpemu"
		}
		if gc {
			a.gcNS += s.ns
		}
		if sched {
			a.schedNS += s.ns
		}
		if emu {
			a.emuNS += s.ns
			if leaf == "syscall" {
				a.emuSys += s.ns
			}
		}
	}
	return a
}

// frac returns part/whole, or 0 when whole is 0.
func frac(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}
