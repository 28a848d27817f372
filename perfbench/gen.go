package main

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"time"

	"netclone/internal/wire"
	"netclone/internal/workload"
)

// genClientID identifies the generator in request headers. It sits
// above the IDs a cluster gives its own clients (1..n), so the switch
// routes the generator's responses to the generator's socket.
const genClientID = 1000

// ringBits sizes the in-flight table: requests are found by sequence
// number modulo its size, which must exceed the most requests ever
// outstanding at once (rate x timeout, 10k here).
const (
	ringBits = 16
	ringMask = 1<<ringBits - 1
)

// request states in the in-flight table.
const (
	reqFree uint8 = iota
	reqInFlight
	reqDone
	reqFailed
	reqRetried // timed out and sent again under a new sequence number
)

// maxTries bounds the attempts at one request. UDP may lose a datagram
// (a socket that overflows while its reader is descheduled drops it),
// so, as an RPC client over UDP does, the generator re-sends a request
// that timed out, and counts it failed only when every attempt has.
const maxTries = 4

// genReq is one attempt at a request. A retry keeps the request's key,
// group, filter index and due time, so its latency still counts from
// when the request was due.
type genReq struct {
	seq         uint32
	state       uint8
	tries       uint8
	idx         uint8
	group       uint16
	key         uint64
	due         int64 // ns since the generator's epoch
	first, sent int64 // first attempt's send, this attempt's send
}

// latency is a request's time from when it was due to its first
// response: a stalled generator makes every request behind the stall
// late, and that lateness counts against the system it feeds.
func latency(due, resp int64) int64 { return resp - due }

// lag is how late the generator sent a request.
func lag(due, sent int64) int64 { return sent - due }

// offeredRatio is the rate actually offered over the target rate: n
// requests sent across elapsed nanoseconds.
func offeredRatio(n int64, elapsed int64, target float64) float64 {
	if elapsed <= 0 || target <= 0 {
		return 0
	}
	return float64(n) / (float64(elapsed) / 1e9) / target
}

// poisson yields open-loop due times: exponential gaps at a mean rate,
// from their own seeded stream so the schedule is a function of the
// seed alone.
type poisson struct {
	rng  *rand.Rand
	gap  float64 // mean gap, ns
	next int64   // next due time, ns from the phase start
}

func newPoisson(seed uint64, ratePerSec float64) *poisson {
	p := &poisson{rng: rand.New(rand.NewPCG(seed, 0x9a7e)), gap: 1e9 / ratePerSec}
	p.advance()
	return p
}

func (p *poisson) advance() { p.next += int64(p.rng.ExpFloat64() * p.gap) }

// phaseStats is what one load phase measured.
type phaseStats struct {
	issued, completed, failed int64
	start, end                int64 // issuing window, ns since epoch
	lastSent                  int64
	retries                   int64    // attempts after a request's first
	all                       lhist    // latency of every completion
	wins                      []*lhist // latency by window of completion
	cuts                      []cut    // process CPU at each window boundary
	lags                      lhist    // how late each request was sent
	lagMax                    int64
}

// window is the width of the slices a phase is cut into; each metric
// is reported as the median over a phase's windows, so a disturbance
// that lasts less than half the phase does not move it.
const window = time.Second

// cut is the process CPU time and completion count when a window ended.
type cut struct {
	cpu       time.Duration
	completed int64
}

// cutWindows records every window boundary that has passed by now.
// Caller holds g.mu.
func (g *generator) cutWindows(now int64) {
	ph := g.phase
	for next := ph.start + int64(len(ph.cuts))*int64(window); now >= next && next <= ph.end; next += int64(window) {
		ph.cuts = append(ph.cuts, cut{cpu: cpuTime(), completed: ph.completed})
	}
}

// generator is the benchmark's single-socket load generator. One
// goroutine issues requests and one receives; in the closed phase the
// receiver issues too.
type generator struct {
	conn   *net.UDPConn
	epoch  time.Time
	rng    *rand.Rand // keys, groups and filter indices, in issue order
	groups int
	tables int
	keys   uint64
	tr     *tracer // nil unless traced

	mu       sync.Mutex
	ring     [1 << ringBits]genReq
	nextSeq  uint32
	oldest   uint32 // no request before it is in flight
	phase    *phaseStats
	closed   bool  // closed phase: each completion issues the next request
	until    int64 // closed phase: no issuing at or after this time
	budget   int64 // closed phase: requests left to issue
	stopping bool  // the phase issues nothing more
	parent   int   // span id of the running phase
	out      []byte
	// Run-wide counts since the generator started.
	sent, received, dups, late, strays, badPayload, sendErrs, retries, inFlight int64
}

func newGenerator(sw *net.UDPAddr, seed uint64, groups, tables int, keys uint64) (*generator, error) {
	conn, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}, sw)
	if err != nil {
		return nil, err
	}
	return &generator{
		conn:   conn,
		epoch:  time.Now(),
		rng:    rand.New(rand.NewPCG(seed, 0x6e6e)),
		groups: max(groups, 1),
		tables: max(tables, 1),
		keys:   keys,
		out:    make([]byte, 0, wire.HeaderLen+wire.OpHeaderLen),
	}, nil
}

func (g *generator) now() int64 { return int64(time.Since(g.epoch)) }

// issue sends the next GET, due at the given time. Caller holds g.mu;
// the lock is dropped around the send.
func (g *generator) issue(due int64) {
	q := genReq{tries: 1, key: g.rng.Uint64N(g.keys), due: due}
	q.group = uint16(g.rng.IntN(g.groups))
	q.idx = uint8(g.rng.IntN(g.tables))
	g.inFlight++
	g.phase.issued++
	g.transmit(q)
}

// retry sends a timed-out request again under a new sequence number;
// an answer to the old one still counts, as late. Caller holds g.mu.
func (g *generator) retry(r *genReq) {
	r.state = reqRetried
	g.retries++
	g.phase.retries++
	q := *r
	q.tries++
	g.transmit(q)
}

// transmit sends an attempt under the next sequence number. Caller
// holds g.mu; the lock is dropped around the send. A send that fails is
// left in flight, to be retried when it times out.
func (g *generator) transmit(q genReq) {
	q.seq = g.nextSeq
	g.nextSeq++
	h := wire.Header{
		Type:       wire.TypeReq,
		Group:      q.group,
		Idx:        q.idx,
		ClientID:   genClientID,
		ClientSeq:  q.seq,
		PktTotal:   1,
		PayloadLen: wire.OpHeaderLen,
	}
	g.out = h.AppendTo(g.out[:0])
	g.out = wire.AppendOp(g.out, uint8(workload.OpGet), q.key, 0, nil)
	r := &g.ring[q.seq&ringMask]
	if r.state == reqInFlight { // outstanding for a whole ring: give up on it
		g.fail(r)
	}
	q.state, q.sent = reqInFlight, g.now()
	if q.tries == 1 {
		q.first = q.sent
		ph := g.phase
		ph.lastSent = q.sent
		l := lag(q.due, q.sent)
		ph.lags.record(l)
		ph.lagMax = max(ph.lagMax, l)
	}
	*r = q
	g.sent++
	out := g.out
	g.mu.Unlock()
	_, err := g.conn.Write(out)
	g.mu.Lock()
	if err != nil {
		g.sendErrs++
	}
}

// fail gives up on an in-flight request. Caller holds g.mu.
func (g *generator) fail(r *genReq) {
	r.state = reqFailed
	g.inFlight--
	g.phase.failed++
}

// settle handles one response datagram received at now, and reports
// whether the phase has finished.
func (g *generator) settle(pkt []byte, now int64) bool {
	var h wire.Header
	_, err := h.Unmarshal(pkt)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil || h.Type != wire.TypeResp {
		g.strays++
		return g.finished()
	}
	payload := pkt[wire.HeaderLen:]
	g.received++
	r := &g.ring[h.ClientSeq&ringMask]
	switch {
	case r.seq != h.ClientSeq || r.state == reqFree:
		g.strays++
		return g.finished()
	case r.state == reqDone:
		g.dups++
		return g.finished()
	case r.state == reqFailed || r.state == reqRetried:
		g.late++
		return g.finished()
	}
	// GET returns the object, whose first 8 bytes are its rank.
	if len(payload) < 8 || binary.BigEndian.Uint64(payload) != r.key {
		g.badPayload++
		g.fail(r)
	} else {
		r.state = reqDone
		g.inFlight--
		g.phase.completed++
		g.phase.record(now, latency(r.due, now))
		if g.tr != nil {
			id := g.tr.add("emu.request", g.parent, g.at(r.due), g.at(now))
			g.tr.add("emu.request.wait", id, g.at(r.due), g.at(r.first))
			g.tr.add("emu.request.flight", id, g.at(r.first), g.at(now))
		}
	}
	if g.issuing(now) {
		g.budget--
		g.issue(now) // the slot freed now, so the next request is due now
	}
	return g.finished()
}

func (g *generator) at(ns int64) time.Time { return g.epoch.Add(time.Duration(ns)) }

// sweep retries attempts outstanding longer than timeout; a request
// out of tries fails and, in the closed phase, its window slot is
// refilled. Attempts go out in sequence order, so the scan stops at the
// first one still within its time.
func (g *generator) sweep(now, timeout int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for ; g.oldest != g.nextSeq; g.oldest++ {
		r := &g.ring[g.oldest&ringMask]
		if r.seq != g.oldest || r.state != reqInFlight {
			continue
		}
		if now-r.sent <= timeout {
			return
		}
		if r.tries < maxTries {
			g.retry(r)
			continue
		}
		g.fail(r)
		if g.issuing(now) {
			g.budget--
			g.issue(now)
		}
	}
}

// issuing reports whether the closed phase still replaces finished
// requests at now. Caller holds g.mu.
func (g *generator) issuing(now int64) bool { return g.closed && now < g.until && g.budget > 0 }

// finished reports whether the phase has stopped issuing and has
// nothing left in flight. Caller holds g.mu.
func (g *generator) finished() bool {
	return (g.stopping || g.closed && g.budget == 0) && g.inFlight == 0
}

// stop tells the receiver to return once nothing is in flight.
func (g *generator) stop() {
	g.mu.Lock()
	g.stopping = true
	g.mu.Unlock()
}

// sweepEvery bounds how long the receiver blocks before it checks for
// timed-out requests and for the end of the phase.
const sweepEvery = 20 * time.Millisecond

// receive settles responses until the phase is finished. Timed-out
// attempts are retried or failed by sweep, so a lost datagram cannot
// hang it.
func (g *generator) receive(timeout time.Duration) error {
	buf := make([]byte, 2048)
	for {
		if err := g.conn.SetReadDeadline(time.Now().Add(sweepEvery)); err != nil {
			return err
		}
		for {
			n, err := g.conn.Read(buf)
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					break
				}
				return err
			}
			if g.settle(buf[:n], g.now()) {
				return nil
			}
		}
		g.sweep(g.now(), int64(timeout))
		g.mu.Lock()
		g.cutWindows(g.now())
		done := g.finished()
		g.mu.Unlock()
		if done {
			return nil
		}
	}
}

// paced offers open-loop Poisson load at rate for dur: one goroutine
// sends each request when due and one receives. Every latency counts
// from the due time, so a late send shows in the result.
func (g *generator) paced(seed uint64, rate float64, dur, timeout time.Duration) (*phaseStats, error) {
	sched := newPoisson(seed, rate)
	g.mu.Lock()
	ph := g.startPhase(dur, false, math.MaxInt64)
	g.mu.Unlock()

	var wg sync.WaitGroup
	var pinErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer g.stop()
		if pinErr = pinThread(); pinErr != nil {
			return
		}
		for due := ph.start + sched.next; due < ph.end; due = ph.start + sched.next {
			if d := due - g.now(); d > 0 {
				nanosleep(time.Duration(d))
				continue
			}
			g.mu.Lock()
			g.issue(due)
			g.mu.Unlock()
			sched.advance()
		}
	}()
	err := g.receive(timeout)
	wg.Wait()
	g.finishPhase()
	return ph, errors.Join(err, pinErr)
}

// closedLoop keeps depth requests in flight: each completion or
// timeout issues the next, until dur has passed or limit requests have
// been issued.
func (g *generator) closedLoop(depth int, dur time.Duration, limit int64, timeout time.Duration) (*phaseStats, error) {
	g.mu.Lock()
	ph := g.startPhase(dur, true, limit)
	for i := 0; i < depth && g.budget > 0; i++ {
		g.budget--
		g.issue(ph.start)
	}
	g.mu.Unlock()
	timer := time.AfterFunc(dur, g.stop)
	defer timer.Stop()
	err := g.receive(timeout)
	g.finishPhase()
	return ph, err
}

// finishPhase closes a phase shorter than one window with a final cut,
// so it still reports its CPU per request. Caller must not hold g.mu.
func (g *generator) finishPhase() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if ph := g.phase; len(ph.cuts) == 1 {
		ph.cuts = append(ph.cuts, cut{cpu: cpuTime(), completed: ph.completed})
	}
}

// startPhase resets the per-phase state. Caller holds g.mu.
func (g *generator) startPhase(dur time.Duration, closed bool, limit int64) *phaseStats {
	now := g.now()
	ph := &phaseStats{start: now, end: now + int64(dur), lastSent: now, cuts: []cut{{cpu: cpuTime()}}}
	g.phase, g.closed, g.until, g.budget, g.stopping = ph, closed, ph.end, limit, false
	return ph
}

// record files a completion at now under its window.
func (ph *phaseStats) record(now, lat int64) {
	ph.all.record(lat)
	w := int((now - ph.start) / int64(window))
	if now >= ph.end || w < 0 {
		return
	}
	for len(ph.wins) <= w {
		ph.wins = append(ph.wins, &lhist{})
	}
	ph.wins[w].record(lat)
}

// overWindows returns the median over the phase's whole windows of f;
// a phase shorter than one window counts as one.
func (ph *phaseStats) overWindows(f func(*lhist) float64) float64 {
	var xs []float64
	whole := max(1, int((ph.end-ph.start)/int64(window)))
	for _, h := range ph.wins[:min(len(ph.wins), whole)] {
		if h.n > 0 {
			xs = append(xs, f(h))
		}
	}
	return median(xs)
}

// windowQuantile is the median over windows of the q-quantile, in µs.
func (ph *phaseStats) windowQuantile(q float64) float64 {
	return ph.overWindows(func(h *lhist) float64 { return float64(h.quantile(q)) / 1e3 })
}

// windowRate is the median over windows of completions per second.
func (ph *phaseStats) windowRate() float64 {
	return ph.overWindows(func(h *lhist) float64 { return float64(h.n) / window.Seconds() })
}

// cpuPerReq is the median over windows of process CPU per completed
// request, in µs.
func (ph *phaseStats) cpuPerReq() float64 {
	var xs []float64
	for i := 1; i < len(ph.cuts); i++ {
		if n := ph.cuts[i].completed - ph.cuts[i-1].completed; n > 0 {
			xs = append(xs, float64((ph.cuts[i].cpu-ph.cuts[i-1].cpu).Nanoseconds())/1e3/float64(n))
		}
	}
	return median(xs)
}
