package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// CPU shares: the harness wraps the traced rounds of a campaign workload
// in runtime/pprof, decodes the profile itself (the standard library
// writes the format but has no public reader) and charges each sample to
// one bucket — the layer whose code the CPU was executing.

// shareNames lists every bucket, in reporting order.
var shareNames = []string{
	"apps", "simnet", "mpi", "fti", "rs", "enc", "storage", "designs",
	"core", "store", "observers", "go_sched", "go_mem", "go_map", "other",
}

// packageBucket maps every package under internal/ to its bucket; the
// package test fails when a new package is missing here. A sub-package
// inherits from its parent (apps/hpccg -> apps).
var packageBucket = map[string]string{
	"match/internal/apps":    "apps",
	"match/internal/simnet":  "simnet",
	"match/internal/mpi":     "mpi",
	"match/internal/fti":     "fti",
	"match/internal/rs":      "rs",
	"match/internal/enc":     "enc",
	"match/internal/storage": "storage",
	"match/internal/restart": "designs",
	"match/internal/reinit":  "designs",
	"match/internal/ulfm":    "designs",
	"match/internal/replica": "designs",
	"match/internal/detect":  "designs",
	"match/internal/fault":   "designs",
	"match/internal/ckpt":    "designs",
	"match/internal/core":    "core",
	"match/internal/store":   "store",
	"match/internal/obs":     "observers",
	"match/internal/trace":   "observers",
	// Offline dependency analysis; never on a campaign's path.
	"match/internal/depanal": "other",
}

// Runtime functions that name a bucket wherever they appear on a stack.
// go_sched is the goroutine hand-off (park, ready, channel operations, the
// scheduler loop and its futex sleeps); go_mem is allocation and garbage
// collection; go_map is map access, assignment and iteration.
var runtimeBuckets = []struct {
	bucket   string
	prefixes []string
}{
	{"go_map", []string{
		"runtime.mapaccess", "runtime.mapassign", "runtime.mapiter", "runtime.mapdelete",
		"runtime.mapclear", "runtime.makemap", "runtime.evacuate", "runtime.growWork",
		"runtime.hashGrow", "internal/runtime/maps.",
	}},
	{"go_mem", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.scanobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination",
		"runtime.gcMarkDone", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mspan)", "runtime.memclrNoHeapPointers", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
		"runtime.sweepone", "runtime.markroot", "runtime.greyobject", "runtime.(*gcWork)",
		"runtime.(*sweepLocked)",
	}},
	{"go_sched", []string{
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.schedule",
		"runtime.findRunnable", "runtime.execute", "runtime.mcall", "runtime.gosched", "runtime.goschedImpl",
		"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv", "runtime.selectgo",
		"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep", "runtime.wakep",
		"runtime.startm", "runtime.stopm", "runtime.runqget", "runtime.runqput", "runtime.goexit0",
		"runtime.newproc", "runtime.gdestroy", "runtime.casgstatus", "runtime.mstart", "runtime.usleep",
		"runtime.osyield", "runtime.resetspinning", "runtime.checkTimers", "runtime.(*timers)",
		"runtime.stealWork", "runtime.pidleget", "runtime.pidleput", "runtime.mPark", "runtime.semasleep",
		"runtime.semawakeup", "runtime.goexit1", "runtime.releaseSudog", "runtime.acquireSudog",
		"runtime.netpoll", "runtime.handoffp", "runtime.entersyscall", "runtime.exitsyscall",
		"runtime.reentersyscall",
	}},
}

// packageOf cuts "match/internal/apps/hpccg.(*State).Step" down to
// "match/internal/apps/hpccg".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketOfPackage resolves a package (or any sub-package of a mapped
// package) to its bucket.
func bucketOfPackage(pkg string) (string, bool) {
	for p := pkg; p != ""; {
		if b, ok := packageBucket[p]; ok {
			return b, true
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			break
		}
		p = p[:i]
	}
	return "", false
}

// bucketOfStack charges one sample. It walks from the leaf frame outwards
// and stops at the first frame that names a layer: a runtime function with
// a bucket of its own (so a map access made by an app kernel is go_map, not
// apps), or a function of a mapped package (so a memmove, a JSON encode or
// a file write counts for the layer that called it). Harness frames and
// anything unrecognised are "other".
func bucketOfStack(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
			for _, rb := range runtimeBuckets {
				for _, p := range rb.prefixes {
					if strings.HasPrefix(fn, p) {
						return rb.bucket
					}
				}
			}
			continue
		}
		if b, ok := bucketOfPackage(packageOf(fn)); ok {
			return b
		}
	}
	return "other"
}

// addProfile decodes one gzipped pprof CPU profile and adds each sample's
// CPU nanoseconds to its bucket in into.
func addProfile(gz []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		stack := make([]string, 0, len(s.locs))
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] { // innermost inlined call first
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		into[bucketOfStack(stack)] += float64(s.value)
	}
	return nil
}

// profile is the part of pprof's profile.proto the shares need.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: cpu nanoseconds
}

var errProto = errors.New("malformed profile")

// protoFields calls f for each field of one protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited field.
func protoFields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends the values of a repeated integer field, which
// arrives either packed (b) or one value at a time (v).
func repeatedVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, b)
				case 2:
					values, err = repeatedVarints(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}
