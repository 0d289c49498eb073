package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the per-layer CPU buckets, one per simulator package
// exercised by the workloads, with the sim engine split into its
// calendar queue and arenas, plus the Go runtime and everything else.
var layers = []string{
	"sim", "sim.calqueue", "sim.arena", "gpu", "charm", "comm", "mpi",
	"netsim", "pdes", "jacobi", "machine", "app", "bench", "sweep", "store",
	"runtime.gc", "runtime.sched", "other",
}

// stack is one CPU profile sample: function names from the leaf to the
// root, inlined frames included, and the CPU time it stands for.
type stack struct {
	frames []string
	ns     int64
}

// folded is a CPU profile attributed to layers.
type folded struct {
	total  int64
	layer  map[string]int64
	malloc int64 // stacks through runtime.mallocgc, across layers
}

// fold charges each sample to one layer: the nearest gat/internal
// package frame from the leaf, so allocator, memclr and write-barrier
// time lands on the package that caused it.
func fold(stacks []stack) folded {
	f := folded{layer: map[string]int64{}}
	for _, s := range stacks {
		f.total += s.ns
		f.layer[layerOf(s.frames)] += s.ns
		for _, fn := range s.frames {
			if fn == "runtime.mallocgc" {
				f.malloc += s.ns
				break
			}
		}
	}
	return f
}

func layerOf(frames []string) string {
	for _, fn := range frames {
		if l, ok := gatLayer(fn); ok {
			return l
		}
	}
	for _, fn := range frames {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return "runtime.gc"
		}
	}
	for _, fn := range frames {
		if !strings.HasPrefix(fn, "runtime.") {
			return "other"
		}
	}
	return "runtime.sched"
}

// gatLayer maps a simulator function name to its layer. Sub-packages
// count to their parent, except the sweep's run store.
func gatLayer(fn string) (string, bool) {
	const prefix = "gat/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", false
	}
	pkg, sym := rest[:dot], rest[dot+1:]
	switch {
	case pkg == "sweep/store":
		return "store", true
	case pkg == "sim" && strings.HasPrefix(sym, "(*calQueue)."):
		return "sim.calqueue", true
	case pkg == "sim" && strings.HasPrefix(sym, "(*Arena["):
		return "sim.arena", true
	}
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg {
			return pkg, true
		}
	}
	return "other", true
}

// parseCPUProfile decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, into stacks weighted by CPU nanoseconds.
func parseCPUProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		types     []uint64 // string index of each sample type
		samples   []sample
		locLines  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]uint64{}   // function id → string index
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = append(s.locs, pbVarints(v, b)...)
				case 2:
					for _, x := range pbVarints(v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	cpu := -1
	for i, t := range types {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		st := stack{ns: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				st.frames = append(st.frames, str(funcNames[fn]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// pbFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value or the bytes of a
// length-delimited field.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n == 0 {
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
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints returns a repeated varint field's values: v itself when it
// was encoded singly, the packed values in data otherwise.
func pbVarints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

// pbVarint decodes one varint, returning its length (0 if malformed).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
