package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile into memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns its raw (gzipped protobuf) bytes.
func (p *cpuProfile) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// profileShares is a CPU profile grouped by layer: every sample lands in
// exactly one group, so the shares sum to 1.
type profileShares struct {
	Samples int64            `json:"samples"`
	Groups  map[string]int64 `json:"groups"`
}

func (s profileShares) share(group string) float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.Groups[group]) / float64(s.Samples)
}

// Group names outside the doram/internal packages.
const (
	groupGC    = "runtime.gc"
	groupSched = "runtime.sched"
	groupOther = "other"
)

// gcFrames and schedFrames are function-name prefixes marking a sample as
// garbage-collector or scheduler work wherever they sit on the stack.
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.wbBuf", "runtime.(*gcWork)", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked)", "runtime.(*gcControllerState)",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.casgstatus", "runtime.mcall",
	"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.notesleep",
	"runtime.notewakeup", "runtime.futex", "runtime.runqgrab", "runtime.runqsteal",
	"runtime.stealWork", "runtime.chanrecv", "runtime.chansend", "runtime.selectgo",
	"runtime.semacquire", "runtime.semrelease", "runtime.goschedImpl", "runtime.gosched_m",
	"runtime.usleep", "runtime.osyield", "runtime.handoffp", "runtime.mPark",
	"runtime.goexit0", "runtime.newproc", "runtime.exitsyscall", "runtime.entersyscall",
	"runtime.netpoll", "runtime.lock2", "runtime.unlock2", "sync.(*WaitGroup)",
	"sync.runtime_", "runtime.Gosched",
}

func hasPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// classify assigns one stack (innermost frame first) to a group: GC work
// anywhere on the stack, then scheduler work, then the innermost
// doram/internal package, else other.
func classify(frames []string) string {
	for _, f := range frames {
		if hasPrefix(f, gcFrames) {
			return groupGC
		}
	}
	for _, f := range frames {
		if hasPrefix(f, schedFrames) {
			return groupSched
		}
	}
	for _, f := range frames {
		if pkg, ok := internalPackage(f); ok {
			return pkg
		}
	}
	return groupOther
}

// internalPackage maps a function name such as
// "doram/internal/oram/backend.(*Stash).Add" to its layer name, the last
// element of the package path ("backend").
func internalPackage(fn string) (string, bool) {
	const prefix = "doram/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.LastIndex(rest, "/"); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.Index(rest, "."); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// groupProfile decodes a runtime/pprof CPU profile and groups its samples.
func groupProfile(raw []byte) (profileShares, error) {
	out := profileShares{Groups: map[string]int64{}}
	if len(raw) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return out, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return out, err
	}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		out.Groups[classify(frames)] += s.count
		out.Samples += s.count
	}
	return out, nil
}

// The fields of profile.proto this decoder reads.
type rawProfile struct {
	samples  []rawSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type rawSample struct {
	locs  []uint64 // innermost first
	count int64
}

var errProto = errors.New("profile: malformed protobuf")

// protoField iterates the fields of one protobuf message.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errProto
}

func eachField(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = readVarint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n, err := readVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated integer field in either packed or unpacked form.
func varints(f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(data []byte) (*rawProfile, error) {
	p := &rawProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(data, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			gotValue := false
			err := eachField(f.b, func(g protoField) error {
				if g.num != 1 && g.num != 2 {
					return nil // labels
				}
				vs, err := varints(g)
				switch {
				case err != nil:
					return err
				case g.num == 1:
					s.locs = append(s.locs, vs...)
				case !gotValue && len(vs) > 0:
					s.count, gotValue = int64(vs[0]), true
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := eachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return eachField(g.b, func(h protoField) error {
						if h.num == 1 {
							funcs = append(funcs, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
