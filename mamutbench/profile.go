package main

// profile.go reads the traced pass's CPU profile (gzip-compressed
// profile.proto, as runtime/pprof writes it) with a minimal protobuf
// decoder, and splits its samples into the repo's layers.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerPackages maps import paths to the cpu.* bucket they are charged
// to. Standard-library and runtime frames are charged to the nearest
// caller listed here (math under hevc counts as hevc), except garbage
// collection and allocation, which get buckets of their own.
var layerPackages = map[string]string{
	"mamut/internal/core":        "core",
	"mamut/internal/rl":          "rl",
	"mamut/internal/baseline":    "baseline",
	"mamut/internal/transcode":   "transcode",
	"mamut/internal/hevc":        "hevc",
	"mamut/internal/platform":    "platform",
	"mamut/internal/video":       "video",
	"mamut/internal/serve":       "serve",
	"mamut/internal/heaps":       "heaps",
	"mamut/internal/metrics":     "metrics",
	"mamut/internal/experiments": "experiments",
	"encoding/json":              "json",
	"main":                       "other", // the benchmark's own decorators
}

// cpuBuckets is the report order of the flat cpu.* shares.
var cpuBuckets = []string{
	"core", "rl", "baseline", "transcode", "hevc", "platform", "video", "serve",
	"heaps", "metrics", "experiments", "json", "runtime_gc", "runtime_alloc", "other",
}

// gcFrames and allocFrames mark a sample as collector or allocator work
// when any frame of its stack contains one of them.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
		"runtime.markroot", "runtime.scanobject", "runtime.bgsweep", "runtime.sweepone",
		"runtime.(*mspan).sweep", "runtime.bgscavenge", "runtime.gcMarkTermination",
	}
	allocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.growslice",
		"runtime.makeslice", "runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice",
	}
	// codecFrames are the public session codec entry points; their
	// cumulative share is cpu.session_codec.
	codecFrames = []string{
		"mamut/internal/transcode.(*Engine).ExtractSession",
		"mamut/internal/transcode.(*Engine).InjectSession",
		"mamut/internal/transcode.EncodeSessionState",
		"mamut/internal/transcode.DecodeSessionState",
	}
)

// cpuShares is the profile split: flat percentages per bucket, the
// cumulative session-codec percentage, and the sample count behind them.
type cpuShares struct {
	flat    map[string]float64
	codec   float64
	samples int64
}

// parseCPUProfile attributes every sample of a CPU profile to one bucket.
func parseCPUProfile(gz []byte) (cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return cpuShares{}, fmt.Errorf("cpu profile: %w", err)
	}
	sh := cpuShares{flat: make(map[string]float64, len(cpuBuckets))}
	var total float64
	for _, s := range p.samples {
		var stack []string // leaf first
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		v := float64(s.value)
		total += v
		sh.samples++
		sh.flat[classify(stack)] += v
		if anyContains(stack, codecFrames) {
			sh.codec += v
		}
	}
	if total == 0 {
		return sh, nil
	}
	for k := range sh.flat {
		sh.flat[k] *= 100 / total
	}
	sh.codec *= 100 / total
	return sh, nil
}

// classify picks a sample's bucket from its leaf-first stack.
func classify(stack []string) string {
	switch {
	case anyContains(stack, gcFrames):
		return "runtime_gc"
	case anyContains(stack, allocFrames):
		return "runtime_alloc"
	}
	for _, fn := range stack {
		if b, ok := layerPackages[packageOf(fn)]; ok {
			return b
		}
	}
	return "other"
}

func anyContains(stack, marks []string) bool {
	for _, fn := range stack {
		for _, m := range marks {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

// packageOf returns the import path of a symbol such as
// "mamut/internal/heaps.(*Min[...]).Push" or "encoding/json.Marshal".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	dir, base := "", fn
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, base = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	return dir + base
}

// --- profile.proto -----------------------------------------------------

type profSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds (or sample count if absent)
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

// decodeProfile reads the fields the attribution needs: sample types,
// samples, locations with their lines, functions and the string table.
func decodeProfile(b []byte) (*profile, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indexes
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location -> function ids
		funcName    = map[uint64]int64{}    // function id -> name string index
		strs        []string
	)
	err := fields(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(data, func(n, w int, v uint64, d []byte) error {
				switch n {
				case 1:
					return repeated(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(d, func(ln, _ int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	valueIdx := 0
	for i, t := range sampleTypes {
		if str(t[1]) == "nanoseconds" {
			valueIdx = i
		}
	}
	p := &profile{locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.locFuncs[id] = names
	}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			return nil, errors.New("sample without its value")
		}
		p.samples = append(p.samples, profSample{locs: s.locs, value: s.values[valueIdx]})
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and wire type, its varint value (wire 0) or its bytes (wire 2).
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
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
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either encoding: one
// value per field (wire 0) or packed (wire 2).
func repeated(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
