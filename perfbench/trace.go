package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share its parent.
type span struct {
	id, parent int
	name       string
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay only a nil check.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	return id
}

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

// end closes the span begin opened.
func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].end = time.Now()
	}
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its children cover. Children may overlap one another (the
// requests of a phase are in flight together), so coverage is the
// union of their intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.name] += s.end.Sub(s.start) - covered(kids[s.id])
	}
	return out
}

// covered is the total length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var end time.Time
	for _, s := range spans {
		switch {
		case !s.end.After(end):
			// inside the interval already counted
		case s.start.After(end):
			total += s.end.Sub(s.start)
			end = s.end
		default:
			total += s.end.Sub(end)
			end = s.end
		}
	}
	return total
}

// writeCSV writes every span, times in nanoseconds from the epoch.
func (t *tracer) writeCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name,
			s.start.Sub(t.epoch).Nanoseconds(), s.end.Sub(t.epoch).Nanoseconds())
	}
	return bw.Flush()
}

// profiler wraps the traced half of a run in a CPU profile.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and attributes its samples to modules.
func (p *profiler) stop() (attribution, error) {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return attribution{}, err
	}
	return attribute(samples), nil
}

// finishTrace writes the spans and the raw profile under dir, prints
// the module shares and span self times to log, and adds the
// <module>.self_frac metrics.
func finishTrace(o options, workload string, t *tracer, p *profiler, a attribution, vals map[string]float64) error {
	for _, m := range modules {
		vals[m+".self_frac"] = frac(a.selfNS[m], a.totalNS)
	}
	vals["runtime.gc_frac"] = frac(a.gcNS, a.totalNS)
	vals["runtime.sched_frac"] = frac(a.schedNS, a.totalNS)

	fmt.Fprintf(o.log, "perfbench: %s: self CPU by module (%d ms profiled)\n", workload, a.totalNS/1e6)
	for _, m := range modules {
		if ns := a.selfNS[m]; ns > 0 {
			fmt.Fprintf(o.log, "  %-11s %6.2f%%\n", m, 100*frac(ns, a.totalNS))
		}
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(o.log, "perfbench: %s: span self time\n", workload)
	for _, n := range names {
		fmt.Fprintf(o.log, "  %-24s %12.3f ms\n", n, float64(self[n])/1e6)
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", workload, o.seed))
	if err := os.WriteFile(base+".pprof", p.buf.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + "-spans.csv")
	if err != nil {
		return err
	}
	if err := t.writeCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
