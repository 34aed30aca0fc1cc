package event

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// The wheel's contract is bit-exact (cycle, seq) pop-order identity
// with the reference engine. These tests drive both engines through the
// same randomized schedules — including far-future events that take
// the overflow list, idle-time jumps, due-now events left stale by a
// clock move, and events scheduled from inside firing events — and
// require identical firing sequences and identical clocks at every
// step.

// rec is one observed firing: which label fired and at what cycle.
type rec struct {
	label uint64
	cycle uint64
}

// driveBoth applies the same seeded schedule script to a wheel queue
// and a reference queue and returns both firing logs.
func driveBoth(seed int64, steps int) (wheelLog, refLog []rec) {
	rng := rand.New(rand.NewSource(seed))
	qs := []*Queue{NewQueueRef(false), NewQueueRef(true)}
	logs := make([][]rec, 2)
	// Per engine: log(label) records a firing; cascade(label, d2) also
	// schedules two more, one due now and one d2 cycles on.
	logf := make([]Func2, 2)
	cascade := make([]Func2, 2)
	for i, q := range qs {
		i, q := i, q
		logf[i] = func(l, _ uint64) { logs[i] = append(logs[i], rec{l, q.Now()}) }
		cascade[i] = func(l, d2 uint64) {
			logf[i](l, 0)
			q.After2(0, logf[i], l+1_000_000, 0)
			q.After2(d2, logf[i], l+2_000_000, 0)
		}
	}
	var label uint64
	for step := 0; step < steps; step++ {
		op := rng.Intn(11)
		switch {
		case op == 10: // delta 0 between Advance calls: fires stale, a cycle late
			label++
			for i, q := range qs {
				q.After2(0, logf[i], label, 0)
				q.Advance()
			}
		case op < 5: // near event, wheel horizon
			d := uint64(rng.Intn(wheelSlots))
			label++
			for i, q := range qs {
				q.After2(d, logf[i], label, 0)
			}
		case op < 7: // far event, overflow list
			d := uint64(wheelSlots + rng.Intn(wheelSlots*4))
			label++
			for i, q := range qs {
				q.After2(d, logf[i], label, 0)
			}
		case op == 7: // cascading event: schedules two more when it fires
			d := uint64(rng.Intn(64))
			d2 := uint64(rng.Intn(wheelSlots * 2))
			label++
			for i, q := range qs {
				q.After2(d, cascade[i], label, d2)
			}
		case op == 8: // a random stretch: jump idle time, or tick through it
			adv := uint64(rng.Intn(wheelSlots * 3))
			jump := rng.Intn(2) == 0
			for _, q := range qs {
				if jump {
					q.Drain(q.Now() + adv)
				} else {
					advanceTo(q, q.Now()+adv)
				}
			}
		default: // cycle-by-cycle advance, the simulator's hot pattern
			n := rng.Intn(20)
			for i := 0; i < n; i++ {
				for _, q := range qs {
					q.Advance()
				}
			}
		}
		if qs[0].Now() != qs[1].Now() || qs[0].Len() != qs[1].Len() {
			panic(fmt.Sprintf("step %d: wheel now=%d len=%d, reference now=%d len=%d",
				step, qs[0].Now(), qs[0].Len(), qs[1].Now(), qs[1].Len()))
		}
	}
	for _, q := range qs {
		q.Drain(q.Now() + 10*wheelSlots)
	}
	return logs[0], logs[1]
}

// TestWheelVsHeapDifferential pins wheel pop order to the reference
// engine under randomized mixed traffic.
func TestWheelVsHeapDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 1234} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, h := driveBoth(seed, 400)
			if len(w) != len(h) {
				t.Fatalf("wheel fired %d events, reference fired %d", len(w), len(h))
			}
			for i := range w {
				if w[i] != h[i] {
					t.Fatalf("firing %d: wheel %+v, reference %+v", i, w[i], h[i])
				}
			}
			if len(w) == 0 {
				t.Fatal("schedule fired nothing; test is vacuous")
			}
		})
	}
}

// TestWheelOverflowLadderOrder pins the class 2 / class 3 split of the
// package comment's order argument: a far event (overflow) and a
// later-scheduled near event (wheel) at the SAME cycle must fire in
// scheduling order — overflow first.
func TestWheelOverflowLadderOrder(t *testing.T) {
	q := NewQueueRef(false)
	var got []uint64
	rec := func(a, _ uint64) { got = append(got, a) }
	target := uint64(wheelSlots + 100)
	q.At2(target, rec, 1, 0) // delta > span: overflow
	advanceTo(q, 200)        // now target is within the horizon
	q.At2(target, rec, 2, 0) // wheel
	q.At2(target, rec, 3, 0) // wheel, same slot FIFO
	q.Drain(target)
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestWheelSlotAliasRoutesToLadder pins the single-cycle-per-slot
// invariant: with an event pending at cycle c, scheduling at
// c+wheelSlots (same slot index) goes to the overflow list and must not
// corrupt the chain.
func TestWheelSlotAliasRoutesToLadder(t *testing.T) {
	q := NewQueueRef(false)
	var got []uint64
	rec := func(_, _ uint64) { got = append(got, q.Now()) }
	q.At2(5, rec, 0, 0)
	q.At2(5+wheelSlots, rec, 0, 0)
	q.At2(5+2*wheelSlots, rec, 0, 0)
	q.Drain(1 << 20)
	want := []uint64{5, 5 + wheelSlots, 5 + 2*wheelSlots}
	if len(got) != len(want) {
		t.Fatalf("fired at cycles %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at cycles %v, want %v", got, want)
		}
	}
}

// staleDueNow schedules f at the current cycle (10) outside RunDue, so
// the following Advance fires it stale: at now=11 with cycle 10. fired
// is the Func2 that logs its label (a: 'f', 'g', 'h') and the clock.
func staleDueNow(ref bool, f func(q *Queue, fired Func2)) []string {
	q := NewQueueRef(ref)
	advanceTo(q, 10)
	var got []string
	fired := func(label, _ uint64) { got = append(got, fmt.Sprintf("%c@%d", rune(label), q.Now())) }
	f(q, fired)
	q.Advance()
	q.Drain(1 << 20)
	return got
}

// TestWheelStaleCycleSparesSlotAlias pins fireCycle's per-node cycle
// check: a stale event at cycle 10 schedules g at 10+wheelSlots, which
// lands in the very slot being fired and must wait for its own cycle.
func TestWheelStaleCycleSparesSlotAlias(t *testing.T) {
	for _, ref := range []bool{false, true} {
		got := staleDueNow(ref, func(q *Queue, fired Func2) {
			q.At2(10, func(_, _ uint64) {
				fired('f', 0)
				q.After2(wheelSlots-1, fired, 'g', 0)
			}, 0, 0)
		})
		if want := fmt.Sprintf("[f@11 g@%d]", 10+wheelSlots); fmt.Sprint(got) != want {
			t.Fatalf("ref=%v: fired %v, want %s", ref, got, want)
		}
	}
}

// TestWheelStaleCycleKeepsSeqOrder pins the class 1 / class 3 split of
// the package comment's order argument: a stale event schedules g due
// now while h, scheduled earlier, already waits in that cycle's chain.
// g joins the chain before it fires and must run after h.
func TestWheelStaleCycleKeepsSeqOrder(t *testing.T) {
	for _, ref := range []bool{false, true} {
		got := staleDueNow(ref, func(q *Queue, fired Func2) {
			q.After2(1, fired, 'h', 0)
			q.At2(10, func(_, _ uint64) {
				fired('f', 0)
				q.After2(0, fired, 'g', 0)
			}, 0, 0)
		})
		if want := "[f@11 h@11 g@11]"; fmt.Sprint(got) != want {
			t.Fatalf("ref=%v: fired %v, want %s", ref, got, want)
		}
	}
}

// steadyStateZeroAlloc pins the event kernel's allocation contract,
// which the cpu/memsys hot paths rely on: once the slab free list and
// the overflow list's backing array have reached their high-water marks,
// schedule+fire — due-now, near and far events alike — must not
// allocate.
func steadyStateZeroAlloc(t *testing.T, q *Queue) {
	t.Helper()
	sink := uint64(0)
	fn := func(a, b uint64) { sink += a + b }
	for i := 0; i < 256; i++ { // grow slab + list to high-water mark
		q.After2(uint64(i%8), fn, 1, 2)
		q.After2(uint64(wheelSlots+i%8), fn, 1, 2)
	}
	q.Drain(1 << 30)
	if n := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 16; i++ {
			q.After2(uint64(i%4), fn, uint64(i), 2)
			q.After2(uint64(wheelSlots+i%4), fn, uint64(i), 2)
		}
		q.Drain(1 << 40)
	}); n != 0 {
		t.Fatalf("steady-state schedule+drain allocates %v allocs/op, want 0", n)
	}
	_ = sink
}

// TestWheelSteadyStateZeroAlloc: the time wheel, NewQueue's engine.
func TestWheelSteadyStateZeroAlloc(t *testing.T) { steadyStateZeroAlloc(t, NewQueueRef(false)) }

// TestQueueSteadyStateZeroAlloc: the reference engine, the sorted list alone.
func TestQueueSteadyStateZeroAlloc(t *testing.T) { steadyStateZeroAlloc(t, NewQueueRef(true)) }

// TestWheelRecordSize pins the event record at one callback and two
// arguments: cycle, fn, a, b. No seq: the order argument needs none.
func TestWheelRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(item{}) = %d, want 32", got)
	}
}

func BenchmarkWheelAt2(b *testing.B) {
	q := NewQueueRef(false)
	fn := func(a, bb uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After2(uint64(i%16), fn, 1, 2)
		if q.Len() > 1024 {
			q.Drain(1 << 62)
		}
	}
}

func BenchmarkHeapAt2(b *testing.B) {
	q := NewQueueRef(true)
	fn := func(a, bb uint64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.After2(uint64(i%16), fn, 1, 2)
		if q.Len() > 1024 {
			q.Drain(1 << 62)
		}
	}
}
