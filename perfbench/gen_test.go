package main

import (
	"encoding/binary"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"netclone/internal/wire"
)

func TestLatencyCountsFromDueTime(t *testing.T) {
	// Due at 100, sent 40 late at 140, answered at 200: the request
	// took 100 from when it was due, of which 40 was the generator's.
	if got := latency(100, 200); got != 100 {
		t.Errorf("latency = %d, want 100", got)
	}
	if got := lag(100, 140); got != 40 {
		t.Errorf("lag = %d, want 40", got)
	}
	// A stall delays every request queued behind it: each one's lag
	// shows in its latency, not just the first's.
	dues := []int64{0, 10, 20, 30}
	sent := int64(50) // all four go out together after a 50 ns stall
	var lats []int64
	for _, d := range dues {
		lats = append(lats, latency(d, sent+5))
	}
	if want := []int64{55, 45, 35, 25}; !slices.Equal(lats, want) {
		t.Errorf("latencies behind a stall = %v, want %v", lats, want)
	}
}

func TestOfferedRatio(t *testing.T) {
	if got := offeredRatio(10_000, int64(time.Second), 10_000); got != 1 {
		t.Errorf("on target: %g, want 1", got)
	}
	// The same requests spread over twice the time offer half the rate.
	if got := offeredRatio(10_000, int64(2*time.Second), 10_000); got != 0.5 {
		t.Errorf("stretched: %g, want 0.5", got)
	}
	if got := offeredRatio(5, 0, 10); got != 0 {
		t.Errorf("empty window: %g, want 0", got)
	}
}

func TestPoissonScheduleIsSeededAndOnRate(t *testing.T) {
	a, b := newPoisson(7, 10_000), newPoisson(7, 10_000)
	c := newPoisson(8, 10_000)
	const n = 200_000
	same, differ := true, false
	for i := 0; i < n; i++ {
		same = same && a.next == b.next
		differ = differ || a.next != c.next
		a.advance()
		b.advance()
		c.advance()
	}
	if !same || !differ {
		t.Fatalf("schedule must repeat for a seed and change with it (same=%v differ=%v)", same, differ)
	}
	// n gaps of mean 100 µs: the schedule spans n/rate seconds.
	if got, want := float64(a.next)/1e9, float64(n)/10_000; math.Abs(got/want-1) > 0.01 {
		t.Errorf("%d arrivals span %.3f s, want %.3f s", n, got, want)
	}
}

func TestWindowMediansIgnoreADisturbedWindow(t *testing.T) {
	w := int64(window)
	ph := &phaseStats{start: 0, end: 5 * w}
	for k := int64(0); k < 5; k++ {
		lat, n := int64(100_000), 1000
		if k == 2 { // one disturbed window: slow and short of completions
			lat, n = 5_000_000, 100
		}
		for i := 0; i < n; i++ {
			ph.record(k*w+int64(i), lat)
		}
	}
	ph.record(5*w, 1) // after the phase: counted overall, not windowed
	if got := ph.windowRate(); got != 1000 {
		t.Errorf("windowRate = %g, want 1000", got)
	}
	if got := ph.windowQuantile(0.5); math.Abs(got-100) > 1 {
		t.Errorf("windowQuantile(0.5) = %g µs, want 100", got)
	}
	if ph.all.n != 4101 {
		t.Errorf("all = %d completions, want 4101", ph.all.n)
	}
}

func TestCPUPerReqByWindow(t *testing.T) {
	ph := &phaseStats{cuts: []cut{
		{cpu: 0, completed: 0},
		{cpu: 50 * time.Millisecond, completed: 1000},  // 50 µs each
		{cpu: 90 * time.Millisecond, completed: 2000},  // 40 µs each
		{cpu: 95 * time.Millisecond, completed: 2000},  // no completions: skipped
		{cpu: 155 * time.Millisecond, completed: 3000}, // 60 µs each
	}}
	if got := ph.cpuPerReq(); math.Abs(got-50) > 1e-9 {
		t.Errorf("cpuPerReq = %g µs, want 50", got)
	}
}

func TestHistogramQuantilesWithinBucketError(t *testing.T) {
	var h lhist
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 1000) // 1 µs .. 100 ms
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 1} {
		want := float64(int64(math.Ceil(q*100_000))) * 1000
		if got := float64(h.quantile(q)); math.Abs(got/want-1) > 1.0/(1<<subBits) {
			t.Errorf("q%.2f = %.0f, want %.0f within 1/%d", q, got, want, 1<<subBits)
		}
	}
	var small lhist
	small.record(3)
	small.record(-1) // clamps to the first bucket
	if got := small.quantile(1); got != 3 {
		t.Errorf("small values are exact: got %d, want 3", got)
	}
	if got := (&lhist{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

func TestBucketsCoverEveryLatency(t *testing.T) {
	for _, v := range []int64{0, 127, 128, 255, 256, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketOf(v)
		if i < 0 || i >= len(lhist{}.b) {
			t.Fatalf("bucketOf(%d) = %d, outside [0, %d)", v, i, len(lhist{}.b))
		}
		if mid := bucketMid(i); v >= 1<<subBits && math.Abs(float64(mid)/float64(v)-1) > 1.0/(1<<subBits) {
			t.Errorf("bucketMid(bucketOf(%d)) = %d, off by more than 1/%d", v, mid, 1<<subBits)
		}
	}
}

// TestTimedOutRequestIsRetriedFromItsDueTime drives the generator's
// retry path against a socket that answers nothing: a timed-out
// attempt goes out again under a new sequence number with the same key,
// a late answer to the old attempt does not complete it, the retry's
// answer does, with latency from the original due time, and a request
// fails only once every attempt has timed out.
func TestTimedOutRequestIsRetriedFromItsDueTime(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	g, err := newGenerator(sink.LocalAddr().(*net.UDPAddr), 1, 4, 2, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer g.conn.Close()
	const timeout = int64(time.Millisecond)
	answer := func(seq uint32, key uint64, now int64) {
		h := wire.Header{Type: wire.TypeResp, ClientID: genClientID, ClientSeq: seq, PayloadLen: 8}
		pkt := binary.BigEndian.AppendUint64(h.AppendTo(nil), key)
		g.settle(pkt, now)
	}

	g.mu.Lock()
	ph := g.startPhase(time.Hour, false, math.MaxInt64)
	due := ph.start
	g.issue(due)
	first := g.ring[0]
	g.mu.Unlock()
	g.sweep(first.sent+timeout+1, timeout)
	g.mu.Lock()
	retry := g.ring[1]
	g.mu.Unlock()
	if g.ring[0].state != reqRetried || retry.state != reqInFlight || retry.tries != 2 ||
		retry.key != first.key || retry.due != due || retry.first != first.sent || ph.retries != 1 {
		t.Fatalf("after one timeout: first %+v, retry %+v, %d retries", g.ring[0], retry, ph.retries)
	}
	answer(first.seq, first.key, retry.sent+10)
	if ph.completed != 0 || g.late != 1 {
		t.Fatalf("an answer to the timed-out attempt completed it (completed %d, late %d)", ph.completed, g.late)
	}
	answer(retry.seq, retry.key, retry.sent+20)
	want := latency(due, retry.sent+20)
	if got := ph.all.quantile(1); ph.completed != 1 || ph.failed != 0 || g.inFlight != 0 || bucketOf(got) != bucketOf(want) {
		t.Fatalf("retry's answer: completed %d failed %d in flight %d, latency %d, want %d",
			ph.completed, ph.failed, g.inFlight, got, want)
	}

	// Unanswered, a request fails after maxTries attempts and no sooner.
	g.mu.Lock()
	g.issue(g.now())
	g.mu.Unlock()
	for try := 1; try <= maxTries; try++ {
		if ph.failed != 0 {
			t.Fatalf("failed after %d attempts, want %d", try-1, maxTries)
		}
		g.mu.Lock()
		last := g.ring[(g.nextSeq-1)&ringMask]
		g.mu.Unlock()
		g.sweep(last.sent+timeout+1, timeout)
	}
	if ph.failed != 1 || ph.issued != 2 || g.inFlight != 0 || g.sent != int64(2+maxTries) {
		t.Errorf("after %d timeouts: failed %d issued %d in flight %d sent %d", maxTries, ph.failed, ph.issued, g.inFlight, g.sent)
	}
}
