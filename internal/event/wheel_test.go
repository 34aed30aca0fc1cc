package event

import (
	"fmt"
	"math/rand"
	"testing"
)

// The wheel's contract is bit-exact (cycle, seq) pop-order identity
// with the reference heap. These tests drive both engines through the
// same randomized schedules — including far-future events that take
// the overflow heap, Every periodics, idle-time jumps, due-now events
// left stale by a clock move, and events scheduled from inside firing
// events — and require identical firing sequences and identical clocks
// at every step.

// rec is one observed firing: which label fired and at what cycle.
type rec struct {
	label uint64
	cycle uint64
}

// driveBoth applies the same seeded schedule script to a wheel queue
// and a heap queue and returns both firing logs.
func driveBoth(seed int64, steps int) (wheelLog, heapLog []rec) {
	rng := rand.New(rand.NewSource(seed))
	qs := []*Queue{NewQueueRef(false), NewQueueRef(true)}
	logs := make([][]rec, 2)
	var label uint64
	for step := 0; step < steps; step++ {
		op := rng.Intn(11)
		switch {
		case op == 10: // delta 0 between Advance calls: fires stale, a cycle late
			label++
			for i, q := range qs {
				q, i, l := q, i, label
				q.After(0, func() { logs[i] = append(logs[i], rec{l, q.Now()}) })
				q.Advance()
			}
		case op < 5: // near event, wheel horizon
			d := uint64(rng.Intn(wheelSlots))
			label++
			for i, q := range qs {
				q, i, l := q, i, label
				if l%2 == 0 {
					q.After2(d, func(a, b uint64) { logs[i] = append(logs[i], rec{a, q.Now()}) }, l, 0)
				} else {
					q.After(d, func() { logs[i] = append(logs[i], rec{l, q.Now()}) })
				}
			}
		case op < 7: // far event, overflow heap
			d := uint64(wheelSlots + rng.Intn(wheelSlots*4))
			label++
			for i, q := range qs {
				q, i, l := q, i, label
				q.After(d, func() { logs[i] = append(logs[i], rec{l, q.Now()}) })
			}
		case op == 7: // cascading event: schedules two more when it fires
			d := uint64(rng.Intn(64))
			d2 := uint64(rng.Intn(wheelSlots * 2))
			label++
			for i, q := range qs {
				q, i, l := q, i, label
				q.After(d, func() {
					logs[i] = append(logs[i], rec{l, q.Now()})
					q.After(0, func() { logs[i] = append(logs[i], rec{l + 1_000_000, q.Now()}) })
					q.After(d2, func() { logs[i] = append(logs[i], rec{l + 2_000_000, q.Now()}) })
				})
			}
		case op == 8: // advance a random stretch, firing everything due
			adv := uint64(rng.Intn(wheelSlots * 3))
			for _, q := range qs {
				q.AdvanceTo(q.Now() + adv)
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
			panic(fmt.Sprintf("step %d: wheel now=%d len=%d, heap now=%d len=%d",
				step, qs[0].Now(), qs[0].Len(), qs[1].Now(), qs[1].Len()))
		}
	}
	for _, q := range qs {
		q.Drain(q.Now() + 10*wheelSlots)
	}
	return logs[0], logs[1]
}

// TestWheelVsHeapDifferential pins wheel pop order to the reference
// heap under randomized mixed traffic.
func TestWheelVsHeapDifferential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 1234} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, h := driveBoth(seed, 400)
			if len(w) != len(h) {
				t.Fatalf("wheel fired %d events, heap fired %d", len(w), len(h))
			}
			for i := range w {
				if w[i] != h[i] {
					t.Fatalf("firing %d: wheel %+v, heap %+v", i, w[i], h[i])
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
	var got []int
	target := uint64(wheelSlots + 100)
	q.At(target, func() { got = append(got, 1) }) // delta > span: overflow
	q.AdvanceTo(200)                              // now target is within the horizon
	q.At(target, func() { got = append(got, 2) }) // wheel
	q.At(target, func() { got = append(got, 3) }) // wheel, same slot FIFO
	q.Drain(target)
	want := []int{1, 2, 3}
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
// c+wheelSpan (same slot index) must not corrupt the chain.
func TestWheelSlotAliasRoutesToLadder(t *testing.T) {
	q := NewQueueRef(false)
	var got []uint64
	q.At(5, func() { got = append(got, q.Now()) })
	q.At(5+wheelSlots, func() { got = append(got, q.Now()) })
	q.At(5+2*wheelSlots, func() { got = append(got, q.Now()) })
	q.Drain(1 << 20)
	want := []uint64{5, 5 + wheelSlots, 5 + 2*wheelSlots}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at cycles %v, want %v", got, want)
		}
	}
}

// staleDueNow schedules f at the current cycle (10) outside RunDue, so
// the following Advance fires it stale: at now=11 with cycle 10.
func staleDueNow(ref bool, f func(q *Queue, fired func(string))) []string {
	q := NewQueueRef(ref)
	q.AdvanceTo(10)
	var got []string
	fired := func(label string) { got = append(got, fmt.Sprintf("%s@%d", label, q.Now())) }
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
		got := staleDueNow(ref, func(q *Queue, fired func(string)) {
			q.At(10, func() {
				fired("f")
				q.After(wheelSlots-1, func() { fired("g") })
			})
		})
		if want := fmt.Sprintf("[f@11 g@%d]", 10+wheelSlots); fmt.Sprint(got) != want {
			t.Fatalf("ref=%v: fired %v, want %s", ref, got, want)
		}
	}
}

// TestWheelStaleCycleKeepsSeqOrder pins the class 3 / class 4 split of
// the package comment's order argument: a stale event schedules g due
// now while h, scheduled earlier, already waits in that cycle's chain.
// g reaches the overflow heap before the chain fires but must run
// after it.
func TestWheelStaleCycleKeepsSeqOrder(t *testing.T) {
	for _, ref := range []bool{false, true} {
		got := staleDueNow(ref, func(q *Queue, fired func(string)) {
			q.After(1, func() { fired("h") })
			q.At(10, func() {
				fired("f")
				q.After(0, func() { fired("g") })
			})
		})
		if want := "[f@11 h@11 g@11]"; fmt.Sprint(got) != want {
			t.Fatalf("ref=%v: fired %v, want %s", ref, got, want)
		}
	}
}

// TestWheelEveryPeriodic drives an Every cadence longer than the wheel
// span (the auditor pattern the far-future overflow exists for) alongside
// near traffic on both engines.
func TestWheelEveryPeriodic(t *testing.T) {
	for _, ref := range []bool{false, true} {
		q := NewQueueRef(ref)
		ticks := 0
		q.Every(uint64(wheelSlots*2+13), func() bool {
			ticks++
			return ticks < 5
		})
		fired := 0
		for i := 0; i < 100; i++ {
			q.After(uint64(i%37), func() { fired++ })
		}
		q.Drain(1 << 20)
		if ticks != 5 || fired != 100 {
			t.Fatalf("ref=%v: ticks=%d fired=%d, want 5 and 100", ref, ticks, fired)
		}
		if q.Len() != 0 {
			t.Fatalf("ref=%v: %d events left after drain", ref, q.Len())
		}
	}
}

// TestWheelSteadyStateZeroAlloc extends the event-kernel allocation
// pin to the wheel engine explicitly: once the slab free list has
// reached its high-water mark, schedule+fire via At2 — including far
// events through the overflow heap — must not allocate.
func TestWheelSteadyStateZeroAlloc(t *testing.T) {
	q := NewQueueRef(false)
	sink := uint64(0)
	fn := func(a, b uint64) { sink += a + b }
	for i := 0; i < 256; i++ { // grow slab + heap to high-water mark
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
		t.Fatalf("steady-state wheel schedule+drain allocates %v allocs/op, want 0", n)
	}
	_ = sink
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
