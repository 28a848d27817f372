package simnet

import (
	"testing"
	"testing/quick"
)

// funcHandler is the engine tests' Handler: every event carries the
// func() to run in its arg.
type funcHandler struct {
	e   *Engine
	hid int32
}

func newFuncHandler(e *Engine) *funcHandler {
	h := &funcHandler{e: e}
	h.hid = e.Register(h)
	return h
}

func (h *funcHandler) OnEvent(_ uint8, arg any, _ int64) { arg.(func())() }

// at schedules fn at absolute time t.
func (h *funcHandler) at(t Time, fn func()) { h.e.Schedule(t, h.hid, 0, fn, 0) }

// after schedules fn d nanoseconds from now.
func (h *funcHandler) after(d int64, fn func()) { h.e.ScheduleAfter(d, h.hid, 0, fn, 0) }

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		f.at(at, func() { got = append(got, at) })
	}
	e.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("ran %d events, want 5", len(got))
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

func TestEqualTimesFIFO(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		f.at(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var fired Time = -1
	f.at(100, func() {
		f.after(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("ScheduleAfter fired at %d, want 150", fired)
	}
}

func TestPastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var fired Time = -1
	f.at(100, func() {
		f.at(10, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
	e2 := NewEngine()
	f2 := newFuncHandler(e2)
	f2.at(5, func() {})
	e2.Run()
	f2.after(-10, func() {})
	e2.Run()
	if e2.Now() != 5 {
		t.Fatalf("negative ScheduleAfter delay moved clock to %d", e2.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30} {
		at := at
		f.at(at, func() { ran[at] = true })
	}
	e.RunUntil(20)
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("RunUntil(20) ran wrong set: %v", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
	// Deadline past all events advances the clock to the deadline.
	e.RunUntil(99)
	if e.Now() != 99 || e.Pending() != 0 {
		t.Fatalf("Now=%d Pending=%d, want 99/0", e.Now(), e.Pending())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event chain where each event schedules the next must run fully.
	e := NewEngine()
	f := newFuncHandler(e)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			f.after(1, tick)
		}
	}
	f.at(0, tick)
	e.Run()
	if count != 1000 {
		t.Fatalf("chain ran %d times, want 1000", count)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}

func TestOrderProperty(t *testing.T) {
	// Property: for any set of times, execution order is a stable sort.
	f := func(times []uint16) bool {
		e := NewEngine()
		h := newFuncHandler(e)
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, at := range times {
			i, at := i, Time(at)
			h.at(at, func() { got = append(got, rec{at, i}) })
		}
		e.Run()
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false // stability violated
			}
		}
		return len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRNGStreamsIndependent(t *testing.T) {
	a := NewRNG(1, 0)
	b := NewRNG(1, 1)
	same := true
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("distinct streams produced identical sequences")
	}
	// Same (seed, stream) reproduces exactly.
	c := NewRNG(1, 0)
	d := NewRNG(1, 0)
	for i := 0; i < 16; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("same seed/stream diverged")
		}
	}
}

// TestPastSchedulingFIFOAfterQueued pins the clamping contract from the
// Schedule doc: an event scheduled in the past (or at t == now) runs at the
// current time, AFTER every event already queued for that time — the
// global seq counter, not the requested time, breaks the tie.
func TestPastSchedulingFIFOAfterQueued(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var got []int
	f.at(100, func() {
		// Queue three more events at the current time...
		for i := 1; i <= 3; i++ {
			i := i
			f.at(100, func() { got = append(got, i) })
		}
		// ...then schedule into the past: it must clamp to now and run
		// after the same-time events queued above.
		f.at(10, func() { got = append(got, 99) })
	})
	e.Run()
	want := []int{1, 2, 3, 99}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("past-clamped event broke FIFO: got %v, want %v", got, want)
		}
	}
}

// TestSeqOverflowPreservesFIFO drives the sequence counter to its
// wraparound point and checks that the renumbering path keeps pending
// events in FIFO order instead of minting tie-breakers below them.
func TestSeqOverflowPreservesFIFO(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		f.at(50, func() { got = append(got, i) })
	}
	// Force the next schedule to hit the overflow guard.
	e.seq = ^uint64(0)
	f.at(50, func() { got = append(got, 4) })
	if e.seq == 0 || e.seq == ^uint64(0) {
		t.Fatalf("seq counter not renumbered: %d", e.seq)
	}
	f.at(50, func() { got = append(got, 5) })
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated across seq renumbering: %v", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("ran %d events, want 6", len(got))
	}
}

func TestEngineReset(t *testing.T) {
	e := NewEngine()
	f := newFuncHandler(e)
	f.at(10, func() {})
	f.at(20, func() {})
	e.Run()
	f.at(30, func() {})
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Steps() != 0 {
		t.Fatalf("Reset left now=%d pending=%d steps=%d", e.Now(), e.Pending(), e.Steps())
	}
	var fired Time = -1
	f = newFuncHandler(e) // Reset drops registrations
	f.at(5, func() { fired = e.Now() })
	e.Run()
	if fired != 5 || e.seq != 1 {
		t.Fatalf("reused engine fired at %d with seq %d, want 5 and 1", fired, e.seq)
	}
}

// refEngine is the pre-typed-event reference semantics: a stable sort
// over (clamped time, scheduling order), executed one event at a time —
// exactly what the container/heap + closure engine guaranteed.
type refEngine struct {
	now  Time
	seq  uint64
	evs  []refEvent
	trac *[]refFire
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refFire struct {
	at Time
	id int
}

func (r *refEngine) at(t Time, id int) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.evs = append(r.evs, refEvent{at: t, seq: r.seq, id: id})
}

func (r *refEngine) step() (refEvent, bool) {
	if len(r.evs) == 0 {
		return refEvent{}, false
	}
	best := 0
	for i := 1; i < len(r.evs); i++ {
		e, b := r.evs[i], r.evs[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = ev.at
	return ev, true
}

// scriptHandler records typed-event firings for the equivalence test.
type scriptHandler struct {
	e     *Engine
	hid   int32
	fires *[]refFire
	// pending holds ids of follow-up events each fired event schedules.
	follow map[int][]scriptOp
}

type scriptOp struct {
	delay int64
	id    int
}

func (h *scriptHandler) OnEvent(kind uint8, arg any, x int64) {
	*h.fires = append(*h.fires, refFire{at: h.e.Now(), id: int(x)})
	for _, op := range h.follow[int(x)] {
		h.e.ScheduleAfter(op.delay, h.hid, 0, nil, int64(op.id))
	}
}

// TestEngineTypedVsClosureEquivalence runs the same randomized schedule
// script through the reference model of the original closure engine and
// through the typed API, and requires the identical firing sequence
// (time and identity) from both.
// Scripts include past/present scheduling, heavy ties, and events that
// schedule follow-up events (cascades).
func TestEngineTypedVsClosureEquivalence(t *testing.T) {
	rng := NewRNG(42, 7)
	for trial := 0; trial < 50; trial++ {
		// Random script: initial events plus follow-ups some events spawn.
		n := 5 + rng.IntN(40)
		initial := make([]scriptOp, n)
		follow := map[int][]scriptOp{}
		id := 0
		for i := range initial {
			initial[i] = scriptOp{delay: int64(rng.IntN(100)), id: id}
			id++
		}
		for i := 0; i < n; i++ {
			if rng.IntN(3) == 0 {
				k := 1 + rng.IntN(3)
				for j := 0; j < k; j++ {
					// Delay may be negative: schedules into the past,
					// exercising the clamp + FIFO rule.
					follow[i] = append(follow[i], scriptOp{delay: int64(rng.IntN(40)) - 10, id: id})
					id++
				}
			}
		}

		// Reference model.
		ref := &refEngine{}
		var refFires []refFire
		for _, op := range initial {
			ref.at(op.delay, op.id)
		}
		for {
			ev, ok := ref.step()
			if !ok {
				break
			}
			refFires = append(refFires, refFire{at: ref.now, id: ev.id})
			for _, op := range follow[ev.id] {
				d := op.delay
				if d < 0 {
					d = 0
				}
				ref.at(ref.now+d, op.id)
			}
		}

		// Typed API.
		te := NewEngine()
		var typedFires []refFire
		h := &scriptHandler{e: te, fires: &typedFires, follow: follow}
		h.hid = te.Register(h)
		for _, op := range initial {
			te.Schedule(op.delay, h.hid, 0, nil, int64(op.id))
		}
		te.Run()

		if len(typedFires) != len(refFires) {
			t.Fatalf("trial %d: typed engine ran %d events, reference ran %d", trial, len(typedFires), len(refFires))
		}
		for i := range refFires {
			if typedFires[i] != refFires[i] {
				t.Fatalf("trial %d: typed engine diverged at event %d: got %+v, want %+v",
					trial, i, typedFires[i], refFires[i])
			}
		}
	}
}

// TestZeroValueEngine pins the documented contract that the zero value
// is ready to use at time 0: alloc lazily initializes storage before
// touching the free list, so scheduling on a `var e Engine` (whose
// freeHead and head[] zero values are 0, not nilIdx) must not index a
// nil slab or misread an empty chain.
func TestZeroValueEngine(t *testing.T) {
	var e Engine
	f := newFuncHandler(&e)
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	f.at(30, rec)
	f.at(10, func() {
		rec()
		f.after(5, rec)
	})
	e.Run()
	want := []Time{10, 15, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// nopHandler is a typed-event sink for benchmarks.
type nopHandler struct{}

func (nopHandler) OnEvent(uint8, any, int64) {}

// BenchmarkEngineTypedScheduleAndRun measures typed scheduling, the
// mode the cluster simulation uses. Steady state is allocation-free
// (the heap grows once, then is reused).
func BenchmarkEngineTypedScheduleAndRun(b *testing.B) {
	e := NewEngine()
	hid := e.Register(nopHandler{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i), hid, 0, nil, int64(i))
	}
	e.Run()
}

// BenchmarkEngineTypedSteadyState measures the recycled-engine cycle:
// schedule a batch, drain it, Reset — the per-event cost with a warm
// heap and zero allocations.
func BenchmarkEngineTypedSteadyState(b *testing.B) {
	e := NewEngine()
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i += batch {
		hid := e.Register(nopHandler{}) // Reset drops registrations
		for j := 0; j < batch; j++ {
			e.Schedule(Time(j), hid, 0, nil, int64(j))
		}
		e.Run()
		e.Reset()
	}
}
