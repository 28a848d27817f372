package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestModuleOfRealProfileNames(t *testing.T) {
	// Names as they appear in this benchmark's own CPU profiles, plus the
	// spellings pprof's text reports use for inlined and generic frames.
	for name, want := range map[string]string{
		"netclone/internal/simnet.(*Engine).ensureBurst":                               "simnet",
		"netclone/internal/simnet.(*Engine).RunUntil (inline)":                         "simnet",
		"netclone/internal/simcluster.(*switchNode).transitRequest":                    "simcluster",
		"netclone/internal/simcluster.(*portQueue).push (inline)":                      "simcluster",
		"netclone/internal/simcluster.runWithInfo.func1":                               "simcluster",
		"netclone/internal/dataplane.(*regArray).slot (inline)":                        "dataplane",
		"netclone/internal/dataplane.(*matchTable[go.shape.uint32]).lookup":            "dataplane",
		"netclone/internal/dataplane.(*matchTable[...]).lookup":                        "dataplane",
		"netclone/internal/workload.Jitter.Sample":                                     "workload",
		"math/rand/v2.(*Rand).ExpFloat64":                                              "workload",
		"netclone/internal/stats.(*Histogram).Record":                                  "stats",
		"netclone/internal/scenario.simBackend.Run":                                    "scenario",
		"netclone/internal/udpemu.(*batchConn).recv.func1":                             "udpemu",
		"netclone/internal/kvstore.(*Store).Get":                                       "kvstore",
		"netclone/internal/wire.(*Header).Unmarshal":                                   "wire",
		"netclone/internal/trace.(*Recorder).Add":                                      "other",
		"internal/runtime/maps.(*Map).getWithKeySmall":                                 "runtime",
		"internal/runtime/syscall.Syscall6":                                            "syscall",
		"syscall.RawSyscall6":                                                          "syscall",
		"runtime.gcBgMarkWorker.func2":                                                 "runtime",
		"runtime.send.goready.func1":                                                   "runtime",
		"type:.eq.netclone/internal/wire.Header":                                       "runtime",
		"internal/poll.(*FD).RawRead":                                                  "net",
		"net.(*conn).Read":                                                             "net",
		"main.(*generator).settle":                                                     "bench",
		"main.(*generator).paced.func1":                                                "bench",
		"slices.pdqsortCmpFunc[go.shape.struct { netclone/internal/simnet.at int64 }]": "stdlib",
		"sync.(*Mutex).Lock":                                                           "stdlib",
	} {
		if got := moduleOf(name); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestFrameClasses(t *testing.T) {
	for _, f := range []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.scanobject", "runtime.bgsweep"} {
		if !gcFrame(f) {
			t.Errorf("%s is GC work", f)
		}
	}
	for _, f := range []string{"runtime.findRunnable", "runtime.park_m", "runtime.netpoll", "runtime.ready"} {
		if !schedFrame(f) {
			t.Errorf("%s is scheduling", f)
		}
	}
	if gcFrame("runtime.mallocgc") || schedFrame("runtime.mallocgc") {
		t.Error("runtime.mallocgc is allocation, neither GC nor scheduling")
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestAttributeOwnProfile decodes a real runtime/pprof CPU profile and
// finds the time spent in this package.
func TestAttributeOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(samples)
	if a.totalNS < int64(100*time.Millisecond) {
		t.Fatalf("only %v profiled", time.Duration(a.totalNS))
	}
	var sum int64
	for m, ns := range a.selfNS {
		if !contains(modules, m) {
			t.Errorf("module %q is not in the reported list", m)
		}
		sum += ns
	}
	if sum != a.totalNS {
		t.Errorf("self times sum to %d, want the total %d", sum, a.totalNS)
	}
	if share := frac(a.selfNS["bench"], a.totalNS); share < 0.5 {
		t.Errorf("bench share %.2f of a busy loop in this package, want most of it", share)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("want an error for non-gzip input")
	}
}
