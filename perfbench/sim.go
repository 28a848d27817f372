package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"netclone/internal/congestion"
	"netclone/internal/scenario"
	"netclone/internal/simcluster"
	"netclone/internal/topology"
	"netclone/internal/workload"
)

// Every point simulates the same window, so one point's output is a
// pure function of its seed, and the run length only sets how many
// rounds of the points are timed.
const (
	simWarmup = 5 * time.Millisecond
	simWindow = 20 * time.Millisecond
	// simSetups is how many times a run builds its points before
	// measuring; setup_s is their median.
	simSetups = 21
)

// simPoint is one experiment point: a label and its scenario.
type simPoint struct {
	label string
	sc    *scenario.Scenario
}

// fig7Dist is the paper's Fig 7a service time: Exp(25 µs), 1% jitter.
func fig7Dist() workload.Dist { return workload.WithJitter(workload.Exp(25), 0.01) }

// capacity is a fabric's saturation rate: worker threads over the mean
// service time.
func capacity(sc *scenario.Scenario) float64 {
	cfg := sc.Config()
	threads := 0
	for _, w := range cfg.Workers {
		threads += w
	}
	return float64(threads) / (cfg.Service.Mean() / 1e9)
}

type load struct {
	scheme simcluster.Scheme
	frac   float64
}

// points derives one scenario per load from base. Points at the same
// load fraction share a seed, so schemes face the same arrivals.
func points(base *scenario.Scenario, seed uint64, loads []load) []simPoint {
	capRPS := capacity(base)
	var out []simPoint
	seen := map[float64]uint64{}
	for _, l := range loads {
		s, ok := seen[l.frac]
		if !ok {
			s = seed + uint64(len(seen))
			seen[l.frac] = s
		}
		out = append(out, simPoint{
			label: fmt.Sprintf("%s@%.0f%%", l.scheme, 100*l.frac),
			sc: base.With(
				scenario.WithScheme(l.scheme),
				scenario.WithOfferedLoad(l.frac*capRPS),
				scenario.WithSeed(s),
			),
		})
	}
	return out
}

// synthPoints is the Fig 7a shape: 6 servers x 16 workers, open-loop
// Poisson. C-Clone runs at 30% only: it doubles the offered work, so at
// 80% it would be a backlog that grows with the window.
func synthPoints(seed uint64) []simPoint {
	base := scenario.New(
		scenario.WithServers(6, 16),
		scenario.WithWorkload(fig7Dist()),
		scenario.WithWindow(simWarmup, simWindow),
	)
	return points(base, seed, []load{
		{simcluster.NetClone, 0.3}, {simcluster.Baseline, 0.3}, {simcluster.CClone, 0.3},
		{simcluster.NetClone, 0.8}, {simcluster.Baseline, 0.8},
	})
}

// fabricSpineGbps oversubscribes the spine enough to queue and mark
// without mass tail-drop.
const fabricSpineGbps = 15

// fabricPoints is the cong-spine shape: 3 racks x 3 servers x 8
// workers, clients on rack 0, finite ECN port queues and a slowed
// spine, at 45% load.
func fabricPoints(seed uint64) []simPoint {
	base := scenario.New(
		scenario.WithRacks(
			topology.HomRack(3, 8, 0),
			topology.HomRack(3, 8, 0),
			topology.HomRack(3, 8, 0),
		),
		scenario.WithWorkload(fig7Dist()),
		scenario.WithCongestion(congestion.New().WithSpineRate(fabricSpineGbps)),
		scenario.WithWindow(simWarmup, simWindow),
	)
	return points(base, seed, []load{{simcluster.Baseline, 0.45}, {simcluster.NetClone, 0.45}})
}

// setupSim builds and validates every point, then runs each over a
// 1 µs window, which costs what a point pays before its first simulated
// request: scenario compilation, cluster and switch construction.
func setupSim(seed uint64, build func(uint64) []simPoint) (pts []simPoint, buildS, setupS float64, err error) {
	var builds, setups []float64
	for i := 0; i < simSetups; i++ {
		start := time.Now()
		pts = build(seed)
		for _, p := range pts {
			if err := p.sc.Validate(); err != nil {
				return nil, 0, 0, fmt.Errorf("%s: %w", p.label, err)
			}
		}
		builds = append(builds, time.Since(start).Seconds())
		for _, p := range pts {
			if _, err := scenario.Sim().Run(p.sc.With(scenario.WithWindow(0, time.Microsecond))); err != nil {
				return nil, 0, 0, fmt.Errorf("%s: %w", p.label, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return pts, median(builds), median(setups), nil
}

// simCounters sums the program's own counters over point runs.
type simCounters struct {
	gen, done, events, passes, cloned, reqs, resps, filterDrops, redundant, served, arrivals, marks, drops int64
}

func (c *simCounters) add(res scenario.Result) {
	c.gen += res.Generated
	c.done += res.Completed
	c.events += res.EngineEvents
	tors := []simcluster.RackStats{{Switch: res.Switch}}
	if res.Racks != nil {
		tors = res.Racks // every ToR's pipeline passes, the clients' included
	}
	for _, tor := range tors {
		s := tor.Switch
		c.passes += s.Requests + s.Recirculated + s.Responses + s.PassL3
	}
	c.cloned += res.Switch.Cloned
	c.reqs += res.Switch.Requests
	c.resps += res.Switch.Responses
	c.filterDrops += res.Switch.FilterDrops
	c.redundant += res.RedundantAtClient
	c.served += res.ServerProcessed
	if cg := res.Congestion; cg != nil {
		c.marks += cg.Marks
		c.drops += cg.Drops
		for _, port := range cg.Ports {
			c.arrivals += port.Arrivals
		}
	}
}

// simRun is what a sequence of rounds over every point measured.
type simRun struct {
	first  []scenario.Result // the first round's output; every later round must equal it
	rates  []float64         // per round: simulated requests completed per wall second
	cpus   []float64         // per round: process CPU µs per simulated request
	cpuUS  [][]float64       // per point, per round: process CPU µs to run it
	wallUS [][]float64       // per point, per round: wall µs to run it
	sum    simCounters
}

// measureSim times rounds over every point until the budget is spent
// (at least one round), checking each round's output against the first.
func measureSim(o *outcome, pts []simPoint, budget time.Duration, t *tracer) (*simRun, error) {
	run := &simRun{cpuUS: make([][]float64, len(pts)), wallUS: make([][]float64, len(pts))}
	deadline := time.Now().Add(budget)
	for len(run.rates) == 0 || time.Now().Before(deadline) {
		start, cpu0 := time.Now(), cpuTime()
		var completed int64
		rs := t.begin("sim.round", 0)
		for i, p := range pts {
			ps := t.begin("sim.point."+p.label, rs)
			pstart, pcpu := time.Now(), cpuTime()
			res, err := scenario.Sim().Run(p.sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.label, err)
			}
			run.cpuUS[i] = append(run.cpuUS[i], float64((cpuTime()-pcpu).Nanoseconds())/1e3)
			run.wallUS[i] = append(run.wallUS[i], float64(time.Since(pstart).Nanoseconds())/1e3)
			t.end(ps)
			o.attempted++
			completed += res.Completed
			run.sum.add(res)
			if len(run.rates) == 0 {
				run.first = append(run.first, res)
			} else if got, want := fingerprint(res), fingerprint(run.first[i]); got != want {
				o.failed++
				o.problemf("%s: rerun differs from first run:\n got %s\nwant %s", p.label, got, want)
			}
		}
		t.end(rs)
		wall, cpu := time.Since(start), cpuTime()-cpu0
		run.rates = append(run.rates, float64(completed)/wall.Seconds())
		run.cpus = append(run.cpus, float64(cpu.Nanoseconds())/1e3/float64(completed))
	}
	return run, nil
}

func runSim(o options, name string, build func(uint64) []simPoint) (*outcome, error) {
	out := &outcome{vals: map[string]float64{}}
	pts, buildS, setupS, err := setupSim(o.seed, build)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	run, err := measureSim(out, pts, budget, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	for i, p := range pts {
		bad := checkSimPoint(run.first[i])
		if want, got := pinned[p.label], fingerprint(run.first[i]); o.seed == 1 && got != want {
			bad = append(bad, fmt.Sprintf("output differs from the pinned seed-1 value:\n got %s\nwant %s", got, want))
		}
		for _, msg := range bad {
			out.problemf("%s: %s", p.label, msg)
		}
		if len(bad) > 0 {
			out.failed++
		}
	}
	v := out.vals
	v["setup_s"] = setupS
	v["cpu_us_per_req"] = median(run.cpus)
	// A point's latency is the time a user waits for its result: the
	// median over rounds, then the median (and, in wall time, the slow
	// end) over points. p50_us reads the process CPU clock, the point's
	// wall time on an otherwise idle core.
	var cpuUS, wallUS []float64
	for i := range pts {
		cpuUS = append(cpuUS, median(run.cpuUS[i]))
		wallUS = append(wallUS, median(run.wallUS[i]))
	}
	v["p50_us"] = median(cpuUS)
	v["wall.p90_us"] = quantileF(wallUS, 0.9)
	v["wall.req_per_s"] = median(run.rates)
	v["max_rss_mb"] = maxRSSMB()
	v["fail_frac"] = frac(out.failed, out.attempted)
	if !o.trace {
		return out, nil
	}
	// Allocation is measured untraced: spans allocate too.
	v["runtime.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(run.sum.gen)
	return out, traceSim(o, name, out, pts, budget, buildS, median(run.cpus))
}

// traceSim is the traced half of a sim run: the same rounds inside
// spans and a CPU profile, reduced to the per-layer metrics.
func traceSim(o options, name string, out *outcome, pts []simPoint, budget time.Duration, buildS, untracedCPU float64) error {
	t := newTracer()
	p, err := startProfile()
	if err != nil {
		return err
	}
	run, err := measureSim(out, pts, budget, t)
	a, perr := p.stop()
	if err = errors.Join(err, perr); err != nil {
		return err
	}
	c := run.sum
	v := out.vals
	v["fail_frac"] = frac(out.failed, out.attempted)
	v["simnet.events_per_req"] = float64(c.events) / float64(c.gen)
	v["simnet.ns_per_event"] = float64(a.selfNS["simnet"]) / float64(c.events)
	v["simcluster.ns_per_req"] = float64(a.selfNS["simcluster"]) / float64(c.gen)
	v["dataplane.ns_per_pkt"] = float64(a.selfNS["dataplane"]) / float64(c.passes)
	v["dataplane.clone_frac"] = frac(c.cloned, c.reqs)
	v["dataplane.filter_drop_frac"] = frac(c.filterDrops, c.resps)
	v["dataplane.redundant_frac"] = frac(c.redundant, c.done)
	v["dataplane.wasted_service_frac"] = frac(c.served-c.done, c.served)
	v["congestion.port_arrivals_per_req"] = frac(c.arrivals, c.gen)
	v["congestion.mark_frac"] = frac(c.marks, c.arrivals)
	v["congestion.drop_frac"] = frac(c.drops, c.arrivals)
	v["scenario.build_s"] = buildS
	v["trace.overhead_frac"] = median(run.cpus)/untracedCPU - 1
	for _, k := range []string{"udpemu.syscall_frac", "udpemu.datagrams_per_req", "udpemu.clone_drop_frac",
		"udpemu.kernel_drop_frac", "udpemu.send_errors", "emu.paced_p50_us", "emu.paced_p90_us",
		"emu.paced_p99_us", "emu.paced_cpu_us_per_req",
		"wire.ns_per_hdr", "gen.lag_p50_us", "gen.lag_max_us", "gen.offered_vs_target", "gen.retry_frac"} {
		v[k] = 0 // the emulator and the request generator do not run here
	}
	return finishTrace(o, name, t, p, a, v)
}
