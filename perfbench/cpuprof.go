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

// cpuGroups attribute a CPU profile's flat (leaf-function) time to the
// simulator's layers by function-name prefix. Time in no group counts only
// toward the total.
var cpuGroups = []struct {
	name     string
	prefixes []string
}{
	{"crypto", []string{"crypto/", "vendor/golang.org/x/crypto/", "golang.org/x/crypto/"}},
	{"math_rand", []string{"math/rand."}},
	{"simtime", []string{"repro/internal/simtime.", "container/heap."}},
	{"netsim", []string{"repro/internal/netsim."}},
	{"ipnet", []string{"repro/internal/ipnet."}},
	{"tcpsim", []string{"repro/internal/tcpsim."}},
	{"tlssim", []string{"repro/internal/tlssim."}},
	{"sniff", []string{"repro/internal/sniff."}},
	{"core", []string{"repro/internal/core."}},
	{"runtime_gc_alloc", nil}, // matched by isGCAlloc
}

// gcAllocWords mark the runtime's allocator and collector functions.
var gcAllocWords = []string{
	"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
	"gc", "mark", "sweep", "scan", "greyobject", "findobject", "span", "heap",
	"mcache", "mcentral", "memclr", "wbbuf", "writebarrier", "bulkbarrier",
	"nextfree", "typepointers", "pagealloc", "scavenge", "assist",
}

func isGCAlloc(fn string) bool {
	if !strings.HasPrefix(fn, "runtime.") {
		return false
	}
	l := strings.ToLower(fn)
	for _, w := range gcAllocWords {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

func cpuGroupOf(fn string) string {
	for _, g := range cpuGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(fn, p) {
				return g.name
			}
		}
	}
	if isGCAlloc(fn) {
		return "runtime_gc_alloc"
	}
	return ""
}

// profileCPU runs fn under the CPU profiler and returns the flat CPU time
// of each leaf function, plus the number of samples taken.
func profileCPU(fn func() error) (map[string]int64, int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	flat, samples, err := flatByFunction(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("decoding CPU profile: %w", err)
	}
	return flat, samples, nil
}

// groupShares returns each group's share of the flat profile, in percent.
func groupShares(flat map[string]int64) map[string]float64 {
	var total int64
	byGroup := make(map[string]int64)
	for fn, v := range flat {
		total += v
		byGroup[cpuGroupOf(fn)] += v
	}
	shares := make(map[string]float64, len(cpuGroups))
	for _, g := range cpuGroups {
		if total > 0 {
			shares[g.name] = 100 * float64(byGroup[g.name]) / float64(total)
		} else {
			shares[g.name] = 0
		}
	}
	return shares
}

// flatByFunction decodes a gzipped pprof protobuf and sums each sample's
// last value (CPU nanoseconds) under its leaf function: the innermost
// inlined frame of the sample's first location. It also returns the number
// of profiler ticks, the first value summed over samples (a sample stands
// for all ticks with the same stack). Only the fields this needs are
// decoded (profile.proto: sample=2, location=4, function=5,
// string_table=6).
func flatByFunction(gz []byte) (map[string]int64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		leaf         uint64
		ticks, value int64
	}
	var (
		samples   []sample
		locFunc   = make(map[uint64]uint64) // location id -> innermost function id
		funcName  = make(map[uint64]int64)  // function id -> string index
		stringTab []string
	)
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			first, values := true, 0
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(w, v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					return eachVarint(w, v, b, func(x uint64) {
						if values == 0 {
							s.ticks = int64(x)
						}
						s.value = int64(x)
						values++
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			haveLine := false
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			stringTab = append(stringTab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	flat := make(map[string]int64)
	ticks := 0
	for _, s := range samples {
		ticks += int(s.ticks)
		name := "?"
		if i, ok := funcName[locFunc[s.leaf]]; ok && i >= 0 && int(i) < len(stringTab) {
			name = stringTab[i]
		}
		flat[name] += s.value
	}
	return flat, ticks, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field number
// and wire type, and either the varint value (wire type 0) or the
// length-delimited bytes (wire type 2). Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, packed or not.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
