// Command perfbench is the repository's same-host benchmark. It drives
// the simulator, the UDP emulator and the wire codec from outside,
// through their public functions, and prints one JSON line:
//
//	go run . --workload sim-synth --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports the per-layer ones, from the programs' own
// counters and a CPU profile attributed to modules. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64 // measured time; a traced run divides it among its parts
	trace   bool
	outDir  string // where a traced run writes its spans and profile
	log     io.Writer
}

// outcome is what a workload hands back: its operation counts, every
// output check that failed, and every metric it measured by name.
type outcome struct {
	attempted, failed int64
	problems          []string
	vals              map[string]float64
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"sim-synth":    func(o options) (*outcome, error) { return runSim(o, "sim-synth", synthPoints) },
	"sim-fabric":   func(o options) (*outcome, error) { return runSim(o, "sim-fabric", fabricPoints) },
	"emu-loopback": runEmu,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim-synth, sim-fabric or emu-loopback")
	seed := fs.Uint64("seed", 1, "input seed; seed 1 also checks the pinned simulator outputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for a traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sim-synth|sim-fabric|emu-loopback, --seconds > 0, --trace 0|1\n")
		return 2
	}
	o, err := w(options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *out, log: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	specs := endToEnd
	if *trace == 1 {
		specs = perLayer
	}
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := o.vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", *name, s.name)
			return 1
		}
		res.Metrics[s.name] = metricValue{v, s.unit}
	}
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantileF returns the q-quantile of xs by the nearest-rank rule (0 for
// none); xs is not modified.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[max(0, min(int(math.Ceil(q*float64(len(s))))-1, len(s)-1))]
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
