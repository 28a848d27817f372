package simnet

import (
	"testing"
)

// Burst-boundary equivalence (ISSUE 6 satellite): draining in bursts is
// a pure scheduling optimization, so the batched paths — Run, DrainBatch,
// and RunUntil with arbitrary pause points — must pop the exact (at, seq)
// sequence the one-event-at-a-time Step() loop pops, for any script.
// Scripts here are built to stress the burst machinery where it can
// break: heavy equal-timestamp ties (whole bursts at one instant),
// follow-up events landing inside the live burst window (the splice
// path), delays straddling the bucket and burst-window boundaries, and
// the seq-overflow renumber rebuilding burst state mid-dispatch.

// burstDelays are the follow-up delays a script byte selects from,
// chosen to straddle the burst geometry: 0 lands in the current burst
// (equal-timestamp splice), 1<<bucketShift-1 / 1<<bucketShift /
// 1<<bucketShift+1 straddle one bucket, and the larger values straddle
// the multi-bucket burst window and the ring horizon.
var burstDelays = [...]int64{
	0, 0, 0, 1, 2,
	1<<bucketShift - 1, 1 << bucketShift, 1<<bucketShift + 1,
	burstSpanBuckets<<bucketShift - 1, burstSpanBuckets << bucketShift,
	numBuckets << bucketShift, 3, 0, 5,
	// Straddle the ring horizon from both sides: a follow-up one bucket
	// inside it lands in the far ring while a sibling one-plus-buckets
	// past it lands in overflow at a *lower* bucket than a later far-ring
	// schedule — the geometry where the cursor advance must be bounded by
	// the overflow head (TestOverflowPullBehindCursorRegression).
	(numBuckets - 1) << bucketShift, (numBuckets + 1) << bucketShift,
	(numBuckets + burstSpanBuckets) << bucketShift,
}

// burstScript is a deterministic schedule derived from a byte string:
// byte i gives event i's initial delay and whether it spawns follow-ups
// when it fires. Every run of the same script fires the same multiset
// of (time, id) pairs; only the *order* is under test.
type burstScript []byte

func (s burstScript) initialDelay(i int) int64 {
	// Cluster initial events on few distinct timestamps so bursts are
	// wide and ties are the common case, not the corner case.
	return int64(s[i]&0x07) * 3
}

func (s burstScript) spawns(i int) bool { return s[i]&0x18 == 0 }

func (s burstScript) followDelay(i, j int) int64 {
	return burstDelays[int(s[i]>>3+byte(j))%len(burstDelays)]
}

// burstRecorder fires a script on one engine and records the sequence.
type burstRecorder struct {
	e      *Engine
	hid    int32
	script burstScript
	next   int // next unused id for follow-up events
	fires  []refFire
}

func (h *burstRecorder) OnEvent(_ uint8, _ any, x int64) {
	id := int(x)
	h.fires = append(h.fires, refFire{at: h.e.Now(), id: id})
	if id < len(h.script) && h.script.spawns(id) {
		for j := 0; j < 2; j++ {
			h.e.ScheduleAfter(h.script.followDelay(id, j), h.hid, 0, nil, int64(h.next))
			h.next++
		}
	}
}

// runBurstScript schedules the script on a fresh engine, primes the
// sequence counter seqHeadroom schedules away from overflow (0 = no
// priming), and drains with drive. It returns the firing sequence.
func runBurstScript(script burstScript, seqHeadroom uint64, drive func(*Engine)) []refFire {
	e := NewEngine()
	h := &burstRecorder{e: e, script: script, next: len(script)}
	h.hid = e.Register(h)
	if seqHeadroom > 0 {
		e.seq = ^uint64(0) - seqHeadroom
	}
	for i := range script {
		e.Schedule(script.initialDelay(i), h.hid, 0, nil, int64(i))
	}
	drive(e)
	return h.fires
}

// drainDrivers are the batched execution modes under test, each paired
// against the stepwise reference. RunUntil deadlines are chosen to pause
// a live burst mid-window (the horizon-break path) and resume it.
var drainDrivers = map[string]func(*Engine){
	"run": func(e *Engine) { e.Run() },
	"drainBatch": func(e *Engine) {
		for e.DrainBatch(1<<62) > 0 {
		}
	},
	"runUntilChunks": func(e *Engine) {
		for t := Time(1); e.Pending() > 0; t += 7 {
			e.RunUntil(t)
		}
	},
}

func checkBurstScript(t *testing.T, script burstScript, seqHeadroom uint64) {
	t.Helper()
	want := runBurstScript(script, seqHeadroom, func(e *Engine) {
		for e.Step() {
		}
	})
	for name, drive := range drainDrivers {
		got := runBurstScript(script, seqHeadroom, drive)
		if len(got) != len(want) {
			t.Fatalf("%s (headroom %d): fired %d events, step loop fired %d",
				name, seqHeadroom, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s (headroom %d): firing %d = %+v, step loop fired %+v",
					name, seqHeadroom, i, got[i], want[i])
			}
		}
	}
}

// TestBurstDrainMatchesStepOrder fuzzes randomized scripts through every
// batched driver, with and without the sequence counter primed to
// overflow mid-run.
func TestBurstDrainMatchesStepOrder(t *testing.T) {
	rng := NewRNG(1234, 99)
	for trial := 0; trial < 200; trial++ {
		script := make(burstScript, 4+rng.IntN(60))
		for i := range script {
			script[i] = byte(rng.IntN(256))
		}
		checkBurstScript(t, script, 0)
	}
}

// TestBurstDrainRenumberMidBurst primes the sequence counter so the
// overflow renumber fires on a follow-up schedule — that is, from inside
// a handler while a burst is being dispatched. The renumber rebuilds the
// slab, ring, and batch wholesale; order must be unaffected at every
// possible landing point.
func TestBurstDrainRenumberMidBurst(t *testing.T) {
	rng := NewRNG(5678, 100)
	for trial := 0; trial < 50; trial++ {
		script := make(burstScript, 8+rng.IntN(40))
		for i := range script {
			// Force dense ties and frequent spawns so bursts are wide
			// and follow-up schedules (the renumber trigger sites) are
			// plentiful.
			script[i] = byte(rng.IntN(256)) &^ 0x18
		}
		// Sweep the overflow point across the whole run: headroom n
		// overflows on the n-th schedule after priming, covering
		// initial scheduling, early-burst, and late-burst landings.
		total := uint64(len(script)) * 3 // initial + up to 2 follow-ups each
		for headroom := uint64(1); headroom <= total; headroom += 3 {
			checkBurstScript(t, script, headroom)
		}
	}
}

// TestOverflowPullBehindCursorRegression pins the geometry where the
// cursor advance used to jump past an overflow event: after the t=384
// dispatch schedules t=131328 (bucket 1026, just inside the horizon
// from burstB=3), the nearest-occupied advance lands curB at 1026 —
// past the overflow event at t=131200 (bucket 1025), which the pull
// loop then chainPushed *behind* the cursor, where its bucket aliased
// modulo numBuckets and it fired after t=131328 (virtual time going
// backwards). The advance is now bounded by the overflow head's bucket.
func TestOverflowPullBehindCursorRegression(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	f.at(0, rec)
	f.at(384, func() {
		rec()
		f.at(131328, rec) // bucket 1026: ring, at the far horizon
	})
	f.at(131200, rec) // beyond the t=0 horizon: overflow
	e.Run()
	want := []Time{0, 384, 131200, 131328}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// FuzzBurstDrainOrder is the native-fuzzing entry point for the same
// property: any byte string is a valid script, and every batched driver
// must match the Step() loop on it.
func FuzzBurstDrainOrder(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x07, 0xe0, 0x41, 0x99, 0x23, 0xff, 0x00, 0x81, 0x5a})
	f.Add([]byte("burst-boundary"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			t.Skip()
		}
		script := burstScript(data)
		checkBurstScript(t, script, 0)
		checkBurstScript(t, script, uint64(len(script)))
	})
}
