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
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 at the root
}

// tracer records spans in memory; they are written when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	t.open = append(t.open, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// spanStat aggregates the spans of one name. Self time is each span's
// duration minus the part its child spans cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) stats() []spanStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanStat{}
	var out []spanStat
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.End-s.Start-child[i]) / 1e6
	}
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// Modules are the buckets CPU samples are attributed to: every
// repro/internal package, "harness" for the benchmark's own code and
// "runtime" for the Go runtime and GC with no simulator frame above it.
var modules = []string{
	"aio", "arch", "bench", "blt", "chaos", "core", "explore", "fault", "fs", "kernel", "loader", "mem",
	"metrics", "mpi", "pip", "probe", "ring", "schedpolicy", "sim", "supervise", "sync", "tasking",
	"timeline", "uctx", "harness", "runtime",
}

const internalPrefix = "repro/internal/"

// moduleOf buckets one sample by its innermost repro/internal frame
// (frames run leaf first). Samples with none go to the benchmark's
// harness when a main-package frame is on the stack, else to runtime.
func moduleOf(frames []string) string {
	harness := false
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(f, "main.") {
			harness = true
		}
	}
	if harness {
		return "harness"
	}
	return "runtime"
}

// cpuShares parses a runtime/pprof CPU profile and returns each
// module's share of the sampled CPU time, with the sample count.
func cpuShares(prof []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	valueIdx := p.sampleTypes - 1 // cpu nanoseconds, after the count
	byMod := map[string]int64{}
	var total, n int64
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, 0, errors.New("profile: sample without a cpu value")
		}
		v := s.values[valueIdx]
		byMod[moduleOf(frames)] += v
		total += v
		n++
	}
	shares := map[string]float64{}
	for mod, v := range byMod {
		if total > 0 {
			shares[mod] = float64(v) / float64(total)
		}
	}
	return shares, n, nil
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	sampleTypes int
	samples     []sample
	locFuncs    map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the pprof protobuf (profile.proto): sample_type
// (1), sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	var strs []string
	funcs := map[uint64]int64{}       // function id -> name string index
	locLines := map[uint64][]uint64{} // location id -> function ids
	p := &profile{locFuncs: map[uint64][]string{}}
	err := fields(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			var s sample
			err := fields(sub, func(num int, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return varints(wire, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wire, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(sub, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			err := fields(sub, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, fns := range locLines {
		for _, f := range fns {
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's
// number, wire type, varint value and (for length-delimited fields)
// payload.
func fields(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated integer field, packed or not.
func varints(wire int, v uint64, sub []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		sub = sub[n:]
	}
	return nil
}
