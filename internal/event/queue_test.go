package event

import (
	"math/rand"
	"sort"
	"testing"
)

// advanceTo steps the clock one cycle at a time up to cycle, firing
// every event due on the way. Drain cannot stand in for it: on a queue
// with nothing due it leaves the clock where it is.
func advanceTo(q *Queue, cycle uint64) {
	for q.Now() < cycle {
		q.Advance()
	}
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var got []uint64
	rec := func(a, _ uint64) { got = append(got, a) }
	q.At2(5, rec, 5, 0)
	q.At2(1, rec, 1, 0)
	q.At2(3, rec, 3, 0)
	q.Drain(100)
	want := []uint64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if q.Now() != 5 {
		t.Fatalf("Now = %d, want 5", q.Now())
	}
}

func TestQueueFIFOWithinCycle(t *testing.T) {
	q := NewQueue()
	var got []uint64
	rec := func(a, _ uint64) { got = append(got, a) }
	for i := uint64(0); i < 10; i++ {
		q.At2(7, rec, i, 0)
	}
	q.Drain(7)
	for i := range got {
		if got[i] != uint64(i) {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
}

func TestQueueAfter(t *testing.T) {
	q := NewQueue()
	fired := uint64(0)
	advanceTo(q, 10)
	q.After2(5, func(_, _ uint64) { fired = q.Now() }, 0, 0)
	q.Drain(100)
	if fired != 15 {
		t.Fatalf("After2(5) fired at %d, want 15", fired)
	}
}

// TestQueuePastSchedulingClamps: an event scheduled in the past fires
// at the current cycle, before any event due later.
func TestQueuePastSchedulingClamps(t *testing.T) {
	q := NewQueue()
	advanceTo(q, 20)
	var got, at []uint64
	rec := func(a, _ uint64) { got = append(got, a); at = append(at, q.Now()) }
	q.At2(21, rec, 21, 0)
	q.At2(3, rec, 3, 0)
	q.Drain(100)
	if len(got) != 2 || got[0] != 3 || got[1] != 21 {
		t.Fatalf("fired %v, want [3 21]: the past event must run first", got)
	}
	if at[0] != 20 || at[1] != 21 {
		t.Fatalf("fired at cycles %v, want [20 21]", at)
	}
}

// TestQueueAt2PastClamps: a past event keeps its arguments and runs in
// RunDue without moving the clock.
func TestQueueAt2PastClamps(t *testing.T) {
	q := NewQueue()
	advanceTo(q, 20)
	var a, b uint64
	q.At2(3, func(x, y uint64) { a, b = x, y }, 7, 8)
	q.RunDue()
	if a != 7 || b != 8 {
		t.Fatalf("At2 args = (%d,%d), want (7,8)", a, b)
	}
	if q.Now() != 20 {
		t.Fatalf("Now = %d, want 20", q.Now())
	}
}

func TestQueueCascade(t *testing.T) {
	// Events scheduling same-cycle events must run before time advances.
	q := NewQueue()
	depth := 0
	var rec Func2
	rec = func(_, _ uint64) {
		depth++
		if depth < 5 {
			q.After2(0, rec, 0, 0)
		}
	}
	q.At2(2, rec, 0, 0)
	advanceTo(q, 2)
	if depth != 5 {
		t.Fatalf("cascade depth = %d, want 5", depth)
	}
	if q.Now() != 2 {
		t.Fatalf("Now = %d, want 2", q.Now())
	}
}

func TestQueueAdvanceSkipsIdleTime(t *testing.T) {
	// Drain jumps the clock straight to the next event instead of
	// ticking through idle cycles, and stops short of maxCycle.
	q := NewQueue()
	var at []uint64
	rec := func(_, _ uint64) { at = append(at, q.Now()) }
	q.At2(1000, rec, 0, 0)
	q.At2(5000, rec, 0, 0)
	if now := q.Drain(4999); now != 1000 || q.Len() != 1 {
		t.Fatalf("Drain(4999) = %d with %d pending, want 1000 and 1", now, q.Len())
	}
	advanceTo(q, 1500)
	if q.Len() != 1 {
		t.Fatal("event fired early")
	}
	q.Drain(1 << 20)
	if len(at) != 2 || at[0] != 1000 || at[1] != 5000 {
		t.Fatalf("fired at %v, want [1000 5000]", at)
	}
}

func TestQueueRandomizedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := NewQueue()
	var fired []uint64
	rec := func(c, _ uint64) { fired = append(fired, c) }
	for i := 0; i < 500; i++ {
		c := uint64(rng.Intn(10000))
		q.At2(c, rec, c, 0)
	}
	q.Drain(1 << 20)
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("events fired out of cycle order")
	}
}

func TestQueueDrainRespectsMaxCycle(t *testing.T) {
	q := NewQueue()
	ran := false
	q.At2(50, func(_, _ uint64) { ran = true }, 0, 0)
	q.Drain(49)
	if ran {
		t.Fatal("Drain ran event past maxCycle")
	}
	q.Drain(50)
	if !ran {
		t.Fatal("Drain skipped due event")
	}
}

func TestQueueRandomizedVsReference(t *testing.T) {
	// Differential check of the hand-rolled heap against a trivially
	// correct reference: stable-sort the same (cycle, seq) stream and
	// require identical firing order.
	rng := rand.New(rand.NewSource(99))
	q := NewQueue()
	type ev struct{ cycle, seq uint64 }
	var want []ev
	var got []ev
	rec := func(a, b uint64) { got = append(got, ev{a, b}) }
	for i := 0; i < 2000; i++ {
		c := uint64(rng.Intn(300))
		want = append(want, ev{c, uint64(i)})
		q.At2(c, rec, c, uint64(i))
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].cycle < want[j].cycle })
	q.Drain(1 << 20)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, reference order wants %+v", i, got[i], want[i])
		}
	}
}
