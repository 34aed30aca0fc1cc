// Package cpu models the out-of-order core of Table I: a trace-driven
// pipeline with ROB, load queue, and store buffer, Fog-style execution
// latencies, prefetch-at-commit, SB-size-dependent store-to-load
// forwarding, and per-resource dispatch-stall attribution. The store
// drain path is pluggable (DrainMechanism) so the baseline, TUS, SSB,
// CSB, and SPB policies share one core.
package cpu

import (
	"sort"

	"tusim/internal/config"
	"tusim/internal/memsys"
)

// SBEntry is one store buffer slot. The SB is unified for non-committed
// and committed stores, as in x86 processors (paper footnote 1).
type SBEntry struct {
	Seq       uint64
	Addr      uint64
	Size      uint8
	Data      [8]byte
	Executed  bool // address generated and data captured
	Committed bool
	// next and run are the ring's line index (see StoreBuffer). They sit
	// in what would otherwise be padding: the entry stays 40 bytes.
	next uint16 // slot+1 of the next-older entry in this entry's bucket; 0 = none
	run  uint16 // on the first entry of a same-line run: the run's length
	// CommitCycle is the cycle the store's ROB entry retired (set by the
	// core at commit). Drain latency = pop cycle − CommitCycle. Purely
	// observational: no mechanism reads it for timing decisions.
	CommitCycle uint64
}

// Line returns the cache line address of the entry.
func (e *SBEntry) Line() uint64 { return e.Addr &^ 63 }

// Mask returns the byte mask of the entry within its line.
func (e *SBEntry) Mask() memsys.Mask { return memsys.MaskFor(e.Addr, e.Size) }

// sbBuckets is the size of the ring's line-hash table. It is fixed so the
// table lives inside the StoreBuffer and construction allocates nothing
// for it; at 1,024 entries a chain is still ~16 long.
const sbBuckets = 64

// sbBucket hashes a line address to its bucket (multiplicative, so
// page-strided lines spread too).
func sbBucket(line uint64) uint {
	return uint((line >> 6) * 0x9E3779B97F4A7C15 >> (64 - 6))
}

// StoreBuffer is a program-order ring of stores: the core's SB and SSB's
// TSOB. Every load searches it associatively (the CAM the paper's energy
// analysis centres on) and every drain cycle reads the distinct lines at
// its head; hardware does both in a cycle, so the ring answers both by
// line instead of walking its capacity:
//
//   - Chains. bucket[h] names the youngest live entry whose line hashes
//     to h, and each entry names the next-older entry of its bucket, so
//     Search visits only the entries sharing the load's bucket, youngest
//     first. Pop never unlinks: it clears the bucket when the popped head
//     is that bucket's youngest, and otherwise leaves the link that names
//     it stale. A stale link is always the tail of its chain and names a
//     slot that is free or was reused by a younger store, so a walk ends
//     at the first link that does not lead to a strictly older position.
//   - Runs. The first entry of each maximal run of consecutive same-line
//     entries carries the run's length (Push extends the youngest run,
//     Pop hands length-1 to the new head), so LookaheadLines takes one
//     step per distinct line. It stops at the first uncommitted run head,
//     which is where the entry-by-entry walk stops because stores commit
//     in order.
//
// Under config.Reference Search and LookaheadLines walk entry by entry
// instead (the reference twin the differential rigs compare against);
// the index is maintained either way.
type StoreBuffer struct {
	// entries is a power-of-two ring (indexing is a mask, not a
	// division); capacity is the architectural size.
	entries  []SBEntry
	mask     int
	capacity int
	head     int
	count    int
	// minUnexec caches the oldest store whose address is still unknown
	// (^0 when none), so blocked loads don't rescan the CAM each cycle.
	minUnexec uint64
	// Overflows counts Push attempts on a full buffer. Dispatch checks
	// Full first, so a nonzero count means SB accounting drifted; the
	// core surfaces it as a counted stall instead of killing the run.
	Overflows uint64
	// OnPop, when set, observes each entry just before it leaves the
	// buffer. Every drain mechanism pops through here, so the core gets
	// a uniform drain-event hook without each mechanism carrying a
	// clock. Must be observational only.
	OnPop func(*SBEntry)

	ref bool
	// tailRun is the slot of the first entry of the youngest run
	// (meaningful while count > 0).
	tailRun uint16
	bucket  [sbBuckets]uint16 // slot+1 of the bucket's youngest live entry; 0 = none
	// gen advances whenever what LookaheadLines visits may have changed
	// (see Gen).
	gen uint64
	// LookaheadLines' watermark and resume point (see there).
	mark, popped, runsPopped, lastAt, lastRuns uint64
}

const noUnexec = ^uint64(0)

// sbFirst is the ring's initial size (a power of two). A litmus thread
// pushes a store or two; a store burst doubles the ring (grow) as its
// occupancy rises, up to the power of two covering its capacity.
const sbFirst = 8

// NewStoreBuffer allocates a ring with the given capacity, at most
// config.MaxStoreRing: slot links are 16 bits wide (config.Validate
// rejects larger SB and TSOB sizes before a machine is built). ref
// (config.Reference) selects the reference twin: entry-by-entry Search
// and LookaheadLines.
func NewStoreBuffer(capacity int, ref bool) *StoreBuffer {
	if capacity > config.MaxStoreRing {
		// Invariant: config.Validate bounds every capacity a machine uses.
		panic("cpu: store ring capacity exceeds config.MaxStoreRing")
	}
	size := 1
	for size < capacity && size < sbFirst {
		size <<= 1
	}
	return &StoreBuffer{entries: make([]SBEntry, size), mask: size - 1, capacity: capacity, minUnexec: noUnexec, ref: ref}
}

// Cap returns the SB capacity.
func (sb *StoreBuffer) Cap() int { return sb.capacity }

// Len returns the number of occupied slots.
func (sb *StoreBuffer) Len() int { return sb.count }

// Full reports whether dispatch must stall on a store.
func (sb *StoreBuffer) Full() bool { return sb.count == sb.capacity }

// Empty reports an empty SB.
func (sb *StoreBuffer) Empty() bool { return sb.count == 0 }

// Push appends a dispatched store in program order and returns its slot
// handle, or nil when the buffer is full (the overflow is counted and
// the caller stalls the store instead of the process dying).
func (sb *StoreBuffer) Push(seq, addr uint64, size uint8) *SBEntry {
	if sb.Full() {
		sb.Overflows++
		return nil
	}
	e := sb.append(SBEntry{Seq: seq, Addr: addr, Size: size})
	if sb.minUnexec == noUnexec {
		sb.minUnexec = seq
	}
	return e
}

// PushCopy appends a copy of a store that left another ring — SSB moves
// committed stores from the SB into its TSOB this way — and reports
// whether there was room. The copy keeps the source's data and flags; it
// must already be executed, so the oldest-unexecuted cache is left alone.
func (sb *StoreBuffer) PushCopy(src *SBEntry) bool {
	if sb.Full() {
		return false
	}
	sb.append(*src)
	sb.gen++
	return true
}

// Commit marks e committed at cycle now (the core retires stores through
// here so the generation sees every commit).
func (sb *StoreBuffer) Commit(e *SBEntry, now uint64) {
	e.Committed = true
	e.CommitCycle = now
	sb.gen++
}

// Gen identifies the committed part of the ring: it advances on every
// Commit, Pop and PushCopy. Push does not move it: an uncommitted store
// adds no line to LookaheadLines' window, so a drain whose last walk saw
// the same Gen and memsys.Private.LossEpoch would ask nothing new.
func (sb *StoreBuffer) Gen() uint64 { return sb.gen }

// append writes v at the tail and links it into its bucket's chain and
// the youngest run.
func (sb *StoreBuffer) append(v SBEntry) *SBEntry {
	if sb.count == len(sb.entries) {
		sb.grow()
	}
	idx := (sb.head + sb.count) & sb.mask
	e := &sb.entries[idx]
	*e = v
	line := e.Line()
	b := &sb.bucket[sbBucket(line)]
	e.next = *b
	*b = uint16(idx + 1)
	if first := &sb.entries[sb.tailRun]; sb.count > 0 && first.Line() == line {
		e.run = 0
		first.run++
	} else {
		e.run = 1
		sb.tailRun = uint16(idx)
	}
	sb.count++
	return e
}

// grow doubles a full ring, re-laying it from slot 0: the entry at ring
// position p moves to slot p, and so does every link that names it.
// Every slot is live, so every link names a live slot, and a stale link
// still leads to a younger position. Entry pointers into the old ring
// are dead afterwards (the core rebinds its ROB's, see Core.rebindSB).
func (sb *StoreBuffer) grow() {
	old := sb.entries
	link := func(v uint16) uint16 { return uint16((int(v)-1-sb.head)&sb.mask) + 1 }
	sb.entries = make([]SBEntry, 2*len(old))
	for p := range old {
		e := &sb.entries[p]
		*e = old[(sb.head+p)&sb.mask]
		if e.next != 0 {
			e.next = link(e.next)
		}
	}
	for b, v := range sb.bucket {
		if v != 0 {
			sb.bucket[b] = link(v)
		}
	}
	sb.tailRun = link(sb.tailRun+1) - 1
	sb.head, sb.mask = 0, len(sb.entries)-1
}

// MarkExecuted records that the entry's address/data are now known
// (callers must not set Executed directly: the oldest-unexecuted cache
// would go stale). Every older store is executed, so a rescan starts at e.
func (sb *StoreBuffer) MarkExecuted(e *SBEntry) {
	e.Executed = true
	if e.Seq != sb.minUnexec {
		return
	}
	sb.minUnexec = noUnexec
	for i := sort.Search(sb.count, func(i int) bool { return sb.at(i).Seq >= e.Seq }); i < sb.count; i++ {
		x := sb.at(i)
		if !x.Executed {
			sb.minUnexec = x.Seq
			return
		}
	}
}

// Head returns the oldest entry, or nil when empty.
func (sb *StoreBuffer) Head() *SBEntry {
	if sb.count == 0 {
		return nil
	}
	return &sb.entries[sb.head]
}

// Pop removes the oldest entry (after it drained to the memory system).
func (sb *StoreBuffer) Pop() {
	if sb.count == 0 {
		// Invariant: mechanisms pop only after Head() returned non-nil.
		panic("cpu: pop from empty store buffer")
	}
	e := &sb.entries[sb.head]
	if sb.OnPop != nil {
		sb.OnPop(e)
	}
	if b := &sb.bucket[sbBucket(e.Line())]; *b == uint16(sb.head+1) {
		*b = 0
	}
	next := (sb.head + 1) & sb.mask
	if e.run > 1 {
		sb.entries[next].run = e.run - 1
		if int(sb.tailRun) == sb.head {
			sb.tailRun = uint16(next)
		}
	} else {
		sb.runsPopped++
	}
	sb.head = next
	sb.count--
	sb.popped++
	sb.gen++
}

// at returns the i-th oldest entry (0 = head).
func (sb *StoreBuffer) at(i int) *SBEntry {
	return &sb.entries[(sb.head+i)&sb.mask]
}

// ForwardResult classifies an SB search for a load.
type ForwardResult uint8

// Forwarding outcomes.
const (
	// FwdMiss: no older store overlaps; the load may go to memory.
	FwdMiss ForwardResult = iota
	// FwdHit: the youngest overlapping older store covers the load
	// fully; Data holds the bytes.
	FwdHit
	// FwdConflict: a partial overlap or an older store with an
	// ungenerated address blocks the load; retry later.
	FwdConflict
)

// Search performs the associative store-to-load forwarding lookup for a
// load at loadSeq. Only stores older than the load participate. An
// older store whose address is not yet known conservatively blocks the
// load (no memory speculation).
func (sb *StoreBuffer) Search(loadSeq, addr uint64, size uint8) (ForwardResult, [8]byte) {
	var zero [8]byte
	if sb.minUnexec < loadSeq {
		// An older store's address is unknown: conservative conflict
		// (fast path — no CAM scan needed).
		return FwdConflict, zero
	}
	want := memsys.MaskFor(addr, size)
	line := addr &^ 63
	if sb.ref {
		return sb.searchRef(loadSeq, addr, size, want, line)
	}
	// Every store older than the load is executed, so only same-line
	// entries decide the result: walk the line's bucket youngest ->
	// oldest. pos is the ring position of the last entry visited; a link
	// that does not lead to an older position is stale.
	pos := sb.count
	for s := sb.bucket[sbBucket(line)]; s != 0; {
		idx := int(s - 1)
		p := (idx - sb.head) & sb.mask
		if p >= pos {
			break
		}
		pos = p
		e := &sb.entries[idx]
		s = e.next
		if e.Seq >= loadSeq || e.Line() != line {
			continue
		}
		if m := e.Mask(); m.Overlaps(want) {
			return e.forward(m, want, addr, size)
		}
	}
	return FwdMiss, zero
}

// forward answers a load from the youngest older store overlapping it
// (m is the store's mask, want the load's).
func (e *SBEntry) forward(m, want memsys.Mask, addr uint64, size uint8) (ForwardResult, [8]byte) {
	var out [8]byte
	if !m.Covers(want) {
		return FwdConflict, out
	}
	// Full cover: extract the requested bytes from the store data.
	off := int(addr&63) - int(e.Addr&63)
	copy(out[:size], e.Data[off:off+int(size)])
	return FwdHit, out
}

// searchRef is Search's reference twin: the whole ring, youngest ->
// oldest.
func (sb *StoreBuffer) searchRef(loadSeq, addr uint64, size uint8, want memsys.Mask, line uint64) (ForwardResult, [8]byte) {
	var zero [8]byte
	for i := sb.count - 1; i >= 0; i-- {
		e := sb.at(i)
		if e.Seq >= loadSeq {
			continue
		}
		if !e.Executed {
			return FwdConflict, zero
		}
		if e.Line() != line {
			continue
		}
		if m := e.Mask(); m.Overlaps(want) {
			return e.forward(m, want, addr, size)
		}
	}
	return FwdMiss, zero
}

// LookaheadLines steps over the runs of up to k distinct lines of the
// oldest committed stores (drain-ahead RFO issue) and visits each whose
// youngest Seq is at or past mark, the Seq after the last run visited
// (all: every run). Else it resumes at the last call's last run unless
// Pop reached it (popped, runsPopped). The reference twin visits all.
func (sb *StoreBuffer) LookaheadLines(k int, all bool, visit func(line uint64)) {
	if sb.ref {
		sb.lookaheadRef(k, visit)
		return
	}
	i, seen := 0, 0
	if all {
		sb.mark = 0
	} else if sb.lastAt >= sb.popped {
		i, seen = int(sb.lastAt-sb.popped), int(sb.lastRuns-sb.runsPopped)
	}
	for ; i < sb.count && seen < k; seen++ {
		e := sb.at(i)
		if !e.Committed {
			break
		}
		sb.lastAt, sb.lastRuns = sb.popped+uint64(i), sb.runsPopped+uint64(seen)
		i += int(e.run)
		if last := sb.at(i - 1).Seq; last >= sb.mark {
			visit(e.Line())
			sb.mark = last + 1
		}
	}
}

// lookaheadRef is LookaheadLines' reference twin: entry by entry.
func (sb *StoreBuffer) lookaheadRef(k int, visit func(line uint64)) {
	var last uint64 = ^uint64(0)
	seen := 0
	for i := 0; i < sb.count && seen < k; i++ {
		e := sb.at(i)
		if !e.Committed {
			break
		}
		ln := e.Line()
		if ln == last {
			continue
		}
		last = ln
		seen++
		visit(ln)
	}
}
