// Package event provides the deterministic discrete-event kernel that
// drives all timing in the simulator. Every event is one record: a
// Func2 bound once by its owner plus two uint64 arguments (a record id,
// a packed payload). Components schedule records on a single Queue;
// the simulation advances by executing events in (cycle, insertion-seq)
// order, which makes every run bit-for-bit reproducible for a given
// seed. Periodic work (the invariant auditor, the sabotage hook) is a
// record whose callback schedules its own next firing.
//
// The queue is a time wheel over a sorted overflow list. Events due
// 0 <= delta < horizon cycles from now go on the wheel: power-of-two
// slots holding per-slot FIFO chains whose nodes come from a slab
// free-list, so scheduling and firing are O(1) and allocate nothing.
// Far-future events (delta >= horizon) go on the list, kept in
// descending cycle order so the next one is last. Measured on whole
// cells that share is zero (EXPERIMENTS.md, "Scheduler class shares"),
// so the list has to be correct and small, not fast.
//
// The reference engine (NewQueueRef(true), selected machine-wide by
// config.Reference) is the same queue with a zero-cycle horizon: every
// event goes on the list, the wheel is never touched, and pops are
// plainly (cycle, seq) order. The wheel reproduces that order exactly.
// At cycle now the queue fires, in turn:
//
//  1. stale events (cycle now-1: scheduled at the present cycle outside
//     RunDue just before Advance moved the clock), fired by Advance;
//  2. far-future events at now, scheduled at least a horizon ago;
//  3. the slot chain at now (FIFO), scheduled less than a horizon ago,
//     due-now events of this very cycle included.
//
// Classes 2 and 3 share a cycle, and every far event was scheduled at
// an earlier now, hence with a smaller seq, than any chain event. A
// list insert goes below every event of its own cycle and a chain
// appends, so each class is in seq order and no record carries a seq.
// A slot maps to one cycle of [now, now+horizon).
package event

import (
	"math/bits"
	"slices"
	"sort"
)

// Func2 is the kernel's one event callback: it receives the two
// uint64 arguments its event was scheduled with. Owners bind it once
// (a method value at construction) and pass small payloads (a record
// id, a packed 8-byte value) as arguments, so scheduling allocates
// nothing.
type Func2 func(a, b uint64)

// item is one scheduled event record.
type item struct {
	cycle uint64
	fn    Func2
	a, b  uint64
}

// Wheel geometry. The span must cover the simulator's ordinary
// latencies (Table I tops out at DRAMLatency=160; chaos request jitter
// adds up to ~200 more), so every hot event schedules O(1) into the
// wheel and only long periodics (auditor cadences) overflow.
const (
	wheelBits  = 9
	wheelSlots = 1 << wheelBits // 512 cycles of near horizon
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// node is one wheel-resident event in the slab; chains link by slab
// index so list surgery moves int32s, never the records.
type node struct {
	item
	next int32
}

// chain is one slot's FIFO list (slab indices; -1 = empty).
type chain struct{ head, tail int32 }

// Queue is a discrete-event scheduler keyed by clock cycle. Construct
// with NewQueue or NewQueueRef; the zero value is not usable — slot
// chains and the free list need their -1 sentinels.
type Queue struct {
	now uint64
	seq uint64
	n   int // total pending events, wheel and overflow

	// horizon is wheelSlots, or 0 on the reference engine: an event
	// delta cycles out rides the wheel iff delta < horizon.
	horizon uint64

	// later holds everything the wheel does not hold (its overflow) in
	// descending (cycle, seq) order; overflowed counts the events ever
	// put there.
	later      []item
	overflowed uint64

	// Wheel state: per-slot chains, an occupancy bitmap for O(words)
	// next-event scans, and the node slab with its free list.
	slots [wheelSlots]chain
	occ   [wheelWords]uint64
	nodes []node
	free  int32
	nearN int
}

// NewQueue returns an empty event queue at cycle 0 on the time wheel.
func NewQueue() *Queue { return NewQueueRef(false) }

// NewQueueRef returns an empty queue; ref selects the reference engine
// (the sorted list alone) instead of the time wheel.
func NewQueueRef(ref bool) *Queue {
	q := &Queue{horizon: wheelSlots, free: -1}
	if ref {
		q.horizon = 0
	}
	for i := range q.slots {
		q.slots[i] = chain{head: -1, tail: -1}
	}
	return q
}

// Now reports the current cycle.
func (q *Queue) Now() uint64 { return q.now }

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.n }

// Scheduled reports how many events have ever been scheduled.
func (q *Queue) Scheduled() uint64 { return q.seq }

// Overflowed reports how many of them were routed to the overflow list
// instead of the wheel. Whole-cell simulation keeps it at zero (pinned
// by a system test), so a latency that grows past the horizon fails a
// test instead of quietly moving hot traffic onto the list.
func (q *Queue) Overflowed() uint64 { return q.overflowed }

// pushSlot links a near-horizon event onto its slot's FIFO chain,
// recycling a slab node when one is free. Steady state allocates
// nothing.
func (q *Queue) pushSlot(cycle uint64, fn Func2, a, b uint64) {
	idx := q.free
	if idx >= 0 {
		q.free = q.nodes[idx].next
	} else {
		q.nodes = append(q.nodes, node{})
		idx = int32(len(q.nodes) - 1)
	}
	nd := &q.nodes[idx]
	nd.cycle, nd.fn, nd.a, nd.b = cycle, fn, a, b
	nd.next = -1
	s := cycle & wheelMask
	ch := &q.slots[s]
	if ch.tail < 0 {
		ch.head, ch.tail = idx, idx
		q.occ[s>>6] |= 1 << (s & 63)
	} else {
		q.nodes[ch.tail].next = idx
		ch.tail = idx
	}
	q.nearN++
}

// At2 schedules fn(a, b) to run at the given absolute cycle.
// Scheduling in the past (or at the current cycle) runs the event
// before time advances again, preserving causality. The arguments ride
// in the event record, so a long-lived fn (bound once at construction)
// schedules with zero allocations.
//
// The wheel's ring arithmetic cannot represent anything a horizon or
// more away, so that class overflows, below every listed event of its
// cycle (seqs only grow). The fields travel to pushSlot as scalars:
// handing the wheel path an item by value doubled BenchmarkWheelAt2.
func (q *Queue) At2(cycle uint64, fn Func2, a, b uint64) {
	if cycle < q.now {
		cycle = q.now
	}
	q.seq++
	q.n++
	if cycle-q.now >= q.horizon {
		q.overflowed++
		i := sort.Search(len(q.later), func(i int) bool { return q.later[i].cycle <= cycle })
		q.later = slices.Insert(q.later, i, item{cycle: cycle, fn: fn, a: a, b: b})
		return
	}
	q.pushSlot(cycle, fn, a, b)
}

// After2 schedules fn(a, b) to run delay cycles from now.
func (q *Queue) After2(delay uint64, fn Func2, a, b uint64) { q.At2(q.now+delay, fn, a, b) }

// nearNext returns the cycle of the earliest wheel-resident event. The
// occupancy bitmap makes the scan O(wheelWords): slots are probed in
// ring order starting at now's slot, and a set bit at ring distance d
// is exactly an event at cycle now+d, because the wheel only ever
// holds cycles in [now, now+wheelSlots-1] and a slot maps to one cycle
// of that window.
func (q *Queue) nearNext() (uint64, bool) {
	if q.nearN == 0 {
		return 0, false
	}
	base := uint(q.now & wheelMask)
	w0 := int(base >> 6)
	off := base & 63
	if bitsHere := q.occ[w0] >> off; bitsHere != 0 {
		return q.now + uint64(bits.TrailingZeros64(bitsHere)), true
	}
	for i := 1; i <= wheelWords; i++ {
		w := (w0 + i) & (wheelWords - 1)
		if q.occ[w] != 0 {
			d := uint64(i)<<6 - uint64(off) + uint64(bits.TrailingZeros64(q.occ[w]))
			return q.now + d, true
		}
	}
	// nearN > 0 guaranteed a set bit; unreachable.
	panic("event: wheel occupancy bitmap out of sync")
}

// NextPending returns the earliest pending cycle across the wheel and
// the overflow list (ok is false when nothing is pending).
func (q *Queue) NextPending() (uint64, bool) {
	best, ok := q.nearNext()
	if n := len(q.later); n > 0 && (!ok || q.later[n-1].cycle < best) {
		return q.later[n-1].cycle, true
	}
	return best, ok
}

// fireCycle runs the events scheduled at cycle c in seq order: overflow
// events older than the slot chain (class 2 of the package comment),
// then the chain, which takes the due-now events its callbacks schedule
// at its tail.
func (q *Queue) fireCycle(c uint64) {
	for n := len(q.later) - 1; n >= 0 && q.later[n].cycle == c; n = len(q.later) - 1 {
		it := q.later[n]
		q.later[n] = item{} // drop the callback reference for the GC
		q.later = q.later[:n]
		q.n--
		it.fn(it.a, it.b)
	}
	s := c & wheelMask
	ch := &q.slots[s]
	// A chain is single-cycle, but when c is STALE (c < now, a due-now
	// event fired late) the slot's resident cycle is c+wheelSlots — a
	// future event this fire must not touch, and one a stale callback
	// can itself schedule, hence the cycle check on every node.
	for ch.head >= 0 && q.nodes[ch.head].cycle == c {
		idx := ch.head
		nd := &q.nodes[idx]
		it := nd.item
		ch.head = nd.next
		if ch.head < 0 {
			ch.tail = -1
			q.occ[s>>6] &^= 1 << (s & 63)
		}
		nd.fn = nil // drop the callback reference for the GC
		nd.next = q.free
		q.free = idx
		q.nearN--
		q.n--
		it.fn(it.a, it.b)
	}
}

// RunDue executes every event scheduled at or before the current cycle.
// Events may schedule further events for the same cycle; those run too.
func (q *Queue) RunDue() {
	for q.n > 0 {
		c, ok := q.NextPending()
		if !ok || c > q.now {
			return
		}
		q.fireCycle(c)
	}
}

// Advance moves the clock forward by one cycle and runs all events due
// at the new cycle. A wheel event left at the old cycle is stale: its
// slot now reads a horizon away, so one occupancy bit fires it first.
func (q *Queue) Advance() {
	s := q.now & wheelMask
	q.now++
	if q.occ[s>>6]&(1<<(s&63)) != 0 {
		q.fireCycle(q.now - 1)
	}
	q.RunDue()
}

// Skip moves the clock n cycles on and runs nothing; the caller keeps
// the new clock short of NextPending, so each slot keeps one cycle.
func (q *Queue) Skip(n uint64) { q.now += n }

// Drain runs events until the queue is empty, advancing time as needed,
// or until maxCycle is reached. It returns the final cycle.
func (q *Queue) Drain(maxCycle uint64) uint64 {
	for {
		next, ok := q.NextPending()
		if !ok || next > maxCycle {
			return q.now
		}
		if next > q.now {
			q.now = next
		}
		q.RunDue()
	}
}
