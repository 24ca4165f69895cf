package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Inside an engine step the layers call each other every few dozen
// nanoseconds. Spans cannot attribute that: a clock read costs ~30 ns here
// and serializes the pipeline, and timed pieces of a step summed to more
// than the step (1.65 s of algorithm calls in a 1.57 s adversary run). So
// below the span boundaries a traced operation is attributed by the CPU
// profiler: every sample goes to the innermost frame that belongs to a
// layer of this repository, which charges library code (encoding/json
// under obs, the allocator under clt) to the layer that called it.

// layers are the repository packages the attribution reports. Frames of
// other packages — the facade, internal/stats, internal/par, the standard
// library — are transparent: their time goes to the layer below them on
// the stack.
var layers = map[string]bool{
	"sim": true, "dex": true, "routers": true, "grid": true, "obs": true, "analysis": true, "workload": true,
	"scenario": true, "adversary": true, "clt": true, "service": true, "fleet": true,
}

// clockLayer owns the reference spins between the slices of a traced sweep
// phase. Their samples are dropped: the clock is not part of the request
// path.
const clockLayer = "clock"

// layerOf names the layer a function belongs to, or "" for a transparent
// frame. The benchmark's own code (decorators, load generator) is "bench".
func layerOf(fn string) string {
	if fn == "main.spin" || fn == "meshroute/bench.spin" {
		return clockLayer
	}
	if rest, ok := strings.CutPrefix(fn, "meshroute/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 && layers[rest[:i]] {
			return rest[:i]
		}
		return ""
	}
	// "main" in the built command, the import path under `go test`.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "meshroute/bench.") {
		return "bench"
	}
	return ""
}

// unowned classifies a stack with no layer frame on it by its leaf: the Go
// runtime (background GC, scheduler), the network plumbing around the
// HTTP handlers, or anything else.
func unowned(leaf string) string {
	switch {
	case strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/"):
		return "go.runtime"
	case strings.HasPrefix(leaf, "net.") || strings.HasPrefix(leaf, "net/") || strings.HasPrefix(leaf, "syscall.") ||
		strings.HasPrefix(leaf, "internal/poll.") || strings.HasPrefix(leaf, "bufio.") || strings.HasPrefix(leaf, "internal/runtime/syscall."):
		return "go.net"
	}
	return "other"
}

// cpuByLayer runs f under the CPU profiler and adds the sampled
// nanoseconds, by layer, to into.
func cpuByLayer(into map[string]float64, f func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	f()
	pprof.StopCPUProfile()
	return addProfile(into, buf.Bytes())
}

// shares turns sampled nanoseconds into "<layer>.self_share" metrics that
// sum to 1.
func shares(cpu map[string]float64, into map[string]float64) {
	total := 0.0
	for _, ns := range cpu {
		total += ns
	}
	for layer, ns := range cpu {
		name := layer + ".self_share"
		if strings.HasPrefix(layer, "go.") {
			name = layer + "_share"
		}
		into[name] = ns / total
	}
}

// addProfile decodes a profile as runtime/pprof writes it — a gzipped
// perftools.profiles.Profile protobuf — far enough to attribute samples:
// the sample stacks, the locations' inlined function chains, the function
// names. The field numbers are those of pprof's profile.proto.
func addProfile(into map[string]float64, gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		stack []uint64
		ns    float64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location → function ids, innermost first
	funcName := map[uint64]uint64{}   // function → string-table index
	var strs []string

	top := pb{raw}
	for top.more() {
		num, _, body, err := top.field()
		if err != nil {
			return err
		}
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			m := pb{body}
			for m.more() {
				n, v, b, err := m.field()
				if err != nil {
					return err
				}
				switch n {
				case 1: // location_id, packed or not
					s.stack = appendVarints(s.stack, v, b)
				case 2: // value: [samples, cpu nanoseconds]
					values = appendVarints(values, v, b)
				}
			}
			if len(values) > 0 {
				s.ns = float64(values[len(values)-1])
				samples = append(samples, s)
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pb{body}
			for m.more() {
				n, v, b, err := m.field()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pb{b}
					for l.more() {
						ln, lv, _, err := l.field()
						if err != nil {
							return err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			m := pb{body}
			for m.more() {
				n, v, _, err := m.field()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(body))
		}
	}

	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, s := range samples {
		owner, leaf := "", ""
	walk:
		for _, loc := range s.stack { // leaf first
			for _, fn := range locFuncs[loc] {
				if leaf == "" {
					leaf = name(fn)
				}
				if owner = layerOf(name(fn)); owner != "" {
					break walk
				}
			}
		}
		if owner == clockLayer {
			continue
		}
		if owner == "" {
			owner = unowned(leaf)
		}
		into[owner] += s.ns
	}
	return nil
}

// pb reads the protobuf wire format.
type pb struct{ b []byte }

func (p *pb) more() bool { return len(p.b) > 0 }

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			break
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("profile: truncated varint")
}

// field reads one field: its number, and either its varint value or its
// length-delimited body. Fixed-width fields are skipped.
func (p *pb) field() (num int, val uint64, body []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, fmt.Errorf("profile: truncated fixed field")
		}
		p.b = p.b[n:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, fmt.Errorf("profile: truncated field")
			}
			body, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("profile: wire type %d", key&7)
	}
	return num, val, body, err
}

// appendVarints appends a repeated integer field's contribution: the
// single value of an unpacked occurrence, or every value of a packed one.
func appendVarints(dst []uint64, val uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, val)
	}
	p := pb{body}
	for p.more() {
		v, err := p.varint()
		if err != nil {
			break
		}
		dst = append(dst, v)
	}
	return dst
}
