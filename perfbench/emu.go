package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"netclone/internal/dataplane"
	"netclone/internal/udpemu"
	"netclone/internal/wire"
	"netclone/internal/workload"
)

// The emu-loopback rig: an in-process switch with cloning and filtering
// at the prototype's 2 x 2^17 filter slots, and 2 servers x 2 workers
// serving GETs from a 64Ki-object store.
const (
	emuServers = 2
	emuWorkers = 2
	emuTables  = 2
	emuSlots   = 1 << 17
	emuObjects = 1 << 16
	emuTimeout = 200 * time.Millisecond
	// emuPacedRate is the paced phase's fixed offered rate, near a
	// quarter of what a 2-vCPU host completes with 32 in flight.
	emuPacedRate = 10000
	emuDepth     = 32
	// emuSetups set-ups run and setup_s is their median; emuWarmup
	// requests, 8 in flight, then warm up the rig that is kept.
	emuWarmup = 500
	emuSetups = 9
)

type rig struct {
	cl  *udpemu.Cluster
	gen *generator
}

func (r *rig) close() {
	if r.gen != nil {
		r.gen.conn.Close()
	}
	r.cl.Close()
}

// startRig starts the cluster and the generator's socket.
func startRig(seed uint64) (*rig, error) {
	cl, err := udpemu.StartCluster(udpemu.ClusterConfig{
		Dataplane: dataplane.Config{
			MaxServers:      emuServers,
			FilterTables:    emuTables,
			FilterSlots:     emuSlots,
			EnableCloning:   true,
			EnableFiltering: true,
		},
		Workers:      slices.Repeat([]int{emuWorkers}, emuServers),
		StoreObjects: emuObjects,
		Timeout:      emuTimeout,
		Seed:         seed,
	})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	r := &rig{cl: cl}
	r.gen, err = newGenerator(cl.Switch.Addr(), seed, cl.Switch.NumGroups(), emuTables, emuObjects)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("generator: %w", err)
	}
	return r, nil
}

// closedPhase runs the closed phase for dur, inside a span when traced.
func (r *rig) closedPhase(dur time.Duration, t *tracer) (*phaseStats, error) {
	g := r.gen
	g.tr, g.parent = t, t.begin("emu.closed", 0)
	defer func() { t.end(g.parent); g.tr = nil }()
	ph, err := g.closedLoop(emuDepth, dur, math.MaxInt64, emuTimeout)
	if err != nil {
		return nil, fmt.Errorf("closed phase: %w", err)
	}
	return ph, nil
}

// pacedPhase runs the paced phase for dur, inside a span when traced.
func (r *rig) pacedPhase(seed uint64, dur time.Duration, t *tracer) (*phaseStats, error) {
	g := r.gen
	g.tr, g.parent = t, t.begin("emu.paced", 0)
	defer func() { t.end(g.parent); g.tr = nil }()
	ph, err := g.paced(seed, emuPacedRate, dur, emuTimeout)
	if err != nil {
		return nil, fmt.Errorf("paced phase: %w", err)
	}
	return ph, nil
}

// setupEmu starts the rig emuSetups times, keeping the last, and
// returns the median set-up cost: the process CPU time each start took.
// Its wall time also counts the time other processes hold the CPUs:
// under a two-core CPU hog it doubled while the CPU time held.
// The warm-up is load, not set-up: it is left out of setup_s, whose
// cost would otherwise swing with the host as the load's does.
func setupEmu(seed uint64) (*rig, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := cpuTime()
		r, err := startRig(seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, (cpuTime() - start).Seconds())
		if i == emuSetups-1 {
			if _, err := r.gen.closedLoop(8, time.Minute, emuWarmup, emuTimeout); err != nil {
				r.close()
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
			return r, median(times), nil
		}
		r.close()
		runtime.GC() // so discarded rigs do not pile up in max_rss_mb
	}
}

// runEmu measures the closed phase untraced for the whole run. A traced
// run splits its time in three: the closed phase untraced, as the
// baseline for tracing overhead, then the paced and closed phases
// traced.
func runEmu(o options) (*outcome, error) {
	out := &outcome{vals: map[string]float64{}}
	r, setupS, err := setupEmu(o.seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 3
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := r.closedPhase(budget, nil)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	out.attempted, out.failed = ph.issued, ph.failed
	v := out.vals
	v["setup_s"] = setupS
	v["cpu_us_per_req"] = ph.cpuPerReq()
	v["p50_us"] = ph.windowQuantile(0.5)
	v["wall.p90_us"] = ph.windowQuantile(0.9)
	v["wall.req_per_s"] = ph.windowRate()
	v["max_rss_mb"] = maxRSSMB()
	if o.trace {
		// Allocation is measured untraced: spans allocate too.
		v["runtime.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ph.completed)
		if err := traceEmu(o, out, r, ph, budget); err != nil {
			return nil, err
		}
	}
	checkEmu(out, r, o.log)
	v["fail_frac"] = frac(out.failed, out.attempted)
	return out, nil
}

// quiesce waits until the cluster's counters stop moving: a slower
// duplicate can still be in service when the generator's last request
// completes, and a server counts a response only after sending it.
func quiesce(cl *udpemu.Cluster) udpemu.ClusterCounters {
	prev := cl.Counters()
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		c := cl.Counters()
		if c == prev {
			break
		}
		prev = c
	}
	return prev
}

// checkEmu states exact relations between the generator's counts and
// the cluster's own counters, over the rig's whole life.
func checkEmu(out *outcome, r *rig, logw io.Writer) {
	c := quiesce(r.cl)
	g := r.gen
	g.mu.Lock()
	defer g.mu.Unlock()
	s := c.Switch
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out.problemf(format, args...)
		}
	}
	check(g.badPayload == 0, "%d GET responses carried the wrong object", g.badPayload)
	check(g.strays == 0, "%d responses matched no request", g.strays)
	check(s.Requests <= g.sent, "switch saw %d requests, generator sent %d", s.Requests, g.sent)
	check(s.Cloned > 0, "the switch never cloned")
	check(g.received <= s.Responses-s.FilterDrops,
		"generator received %d responses, switch passed %d", g.received, s.Responses-s.FilterDrops)
	// The filter can pass a duplicate only where an insert overwrote a
	// foreign fingerprint (§3.5).
	check(g.dups <= s.FilterOverwrites, "%d duplicates reached the generator, filter overwrote %d", g.dups, s.FilterOverwrites)
	check(s.Responses <= c.Processed, "switch saw %d responses, servers sent %d", s.Responses, c.Processed)
	check(c.Processed <= s.Requests+s.Recirculated-c.CloneDrops,
		"servers executed %d, switch forwarded %d requests + %d clones, %d clones dropped",
		c.Processed, s.Requests, s.Recirculated, c.CloneDrops)
	check(c.Redundant == 0, "the cluster's idle client received %d responses", c.Redundant)
	fmt.Fprintf(logw, "perfbench: emu: generator sent %d (%d retries), switch saw %d requests and %d responses (%d filtered), servers executed %d (%d clone drops), generator received %d (%d late, %d duplicates)\n",
		g.sent, g.retries, s.Requests, s.Responses, s.FilterDrops, c.Processed, c.CloneDrops, g.received, g.late, g.dups)
}

// traceEmu runs the paced and closed phases inside spans and a CPU
// profile, and reduces them and the cluster's counter deltas to
// per-layer metrics.
func traceEmu(o options, out *outcome, r *rig, untraced *phaseStats, budget time.Duration) error {
	t := newTracer()
	g := r.gen
	c0 := r.cl.Counters()
	g.mu.Lock()
	sent0, dups0 := g.sent, g.dups
	g.mu.Unlock()
	p, err := startProfile()
	if err != nil {
		return err
	}
	paced, err := r.pacedPhase(o.seed, budget, t)
	var closed *phaseStats
	if err == nil {
		closed, err = r.closedPhase(budget, t)
	}
	a, perr := p.stop()
	if err = errors.Join(err, perr); err != nil {
		return err
	}
	c1 := r.cl.Counters()
	g.mu.Lock()
	sent, dups := g.sent-sent0, g.dups-dups0
	g.mu.Unlock()
	out.attempted += paced.issued + closed.issued
	out.failed += paced.failed + closed.failed

	s0, s1 := c0.Switch, c1.Switch
	reqs := s1.Requests - s0.Requests
	recirc := s1.Recirculated - s0.Recirculated
	resps := s1.Responses - s0.Responses
	filterDrops := s1.FilterDrops - s0.FilterDrops
	processed := c1.Processed - c0.Processed
	done := paced.completed + closed.completed

	v := out.vals
	for _, k := range []string{"simnet.events_per_req", "simnet.ns_per_event", "simcluster.ns_per_req",
		"congestion.port_arrivals_per_req", "congestion.mark_frac", "congestion.drop_frac", "scenario.build_s"} {
		v[k] = 0 // the simulator does not run here
	}
	v["dataplane.ns_per_pkt"] = frac(a.selfNS["dataplane"], reqs+recirc+resps)
	v["dataplane.clone_frac"] = frac(s1.Cloned-s0.Cloned, reqs)
	v["dataplane.filter_drop_frac"] = frac(filterDrops, resps)
	v["dataplane.redundant_frac"] = frac(dups, done)
	v["dataplane.wasted_service_frac"] = frac(processed-done, processed)
	v["udpemu.syscall_frac"] = frac(a.emuSys, a.emuNS)
	v["udpemu.datagrams_per_req"] = float64(sent+reqs+recirc+processed+resps-filterDrops) / float64(done)
	v["udpemu.clone_drop_frac"] = frac(c1.CloneDrops-c0.CloneDrops, recirc)
	v["udpemu.kernel_drop_frac"] = frac(sent-reqs, sent)
	v["udpemu.send_errors"] = float64(c1.SendErrors - c0.SendErrors + g.sendErrs)
	v["emu.paced_p50_us"] = paced.windowQuantile(0.5)
	v["emu.paced_p90_us"] = paced.windowQuantile(0.9)
	v["emu.paced_p99_us"] = float64(paced.all.quantile(0.99)) / 1e3
	v["emu.paced_cpu_us_per_req"] = paced.cpuPerReq()
	v["gen.lag_p50_us"] = float64(paced.lags.quantile(0.5)) / 1e3
	v["gen.lag_max_us"] = float64(paced.lagMax) / 1e3
	v["gen.retry_frac"] = frac(paced.retries+closed.retries, paced.issued+closed.issued)
	v["gen.offered_vs_target"] = offeredRatio(paced.issued, max(paced.lastSent, paced.end)-paced.start, emuPacedRate)
	v["wire.ns_per_hdr"] = wireNSPerHeader()
	v["trace.overhead_frac"] = closed.cpuPerReq()/untraced.cpuPerReq() - 1
	return finishTrace(o, "emu-loopback", t, p, a, v)
}

// wireNSPerHeader times the generator's own codec path — encode a GET
// request header and op, decode the header back — and returns the
// median cost per header over five timed loops.
func wireNSPerHeader() float64 {
	const n = 200_000
	buf := make([]byte, 0, wire.HeaderLen+wire.OpHeaderLen)
	var h, back wire.Header
	h = wire.Header{Type: wire.TypeReq, ClientID: genClientID, PktTotal: 1, PayloadLen: wire.OpHeaderLen}
	var runs []float64
	for k := 0; k < 5; k++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			h.ClientSeq = uint32(i)
			buf = h.AppendTo(buf[:0])
			buf = wire.AppendOp(buf, uint8(workload.OpGet), uint64(i), 0, nil)
			if _, err := back.Unmarshal(buf); err != nil || back.ClientSeq != h.ClientSeq {
				panic(fmt.Sprintf("wire: header did not survive a round trip: %v", err))
			}
		}
		runs = append(runs, float64(time.Since(start).Nanoseconds())/n)
	}
	return median(runs)
}
