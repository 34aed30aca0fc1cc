// Package cpu models the out-of-order core of Table I: a trace-driven
// pipeline with ROB, load queue, and store buffer, Fog-style execution
// latencies, prefetch-at-commit, SB-size-dependent store-to-load
// forwarding, and per-resource dispatch-stall attribution. The store
// drain path is pluggable (DrainMechanism) so the baseline, TUS, SSB,
// CSB, and SPB policies share one core.
package cpu

import "tusim/internal/memsys"

// SBEntry is one store buffer slot. The SB is unified for non-committed
// and committed stores, as in x86 processors (paper footnote 1).
type SBEntry struct {
	Seq       uint64
	Addr      uint64
	Size      uint8
	Data      [8]byte
	Executed  bool // address generated and data captured
	Committed bool
	// CommitCycle is the cycle the store's ROB entry retired (set by the
	// core at commit). Drain latency = pop cycle − CommitCycle. Purely
	// observational: no mechanism reads it for timing decisions.
	CommitCycle uint64
}

// Line returns the cache line address of the entry.
func (e *SBEntry) Line() uint64 { return e.Addr &^ 63 }

// Mask returns the byte mask of the entry within its line.
func (e *SBEntry) Mask() memsys.Mask { return memsys.MaskFor(e.Addr, e.Size) }

// StoreBuffer is a program-order ring of stores. Every load searches it
// associatively (the CAM the paper's energy analysis centres on).
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
}

const noUnexec = ^uint64(0)

// NewStoreBuffer allocates an SB with the given capacity.
func NewStoreBuffer(capacity int) *StoreBuffer {
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &StoreBuffer{entries: make([]SBEntry, size), mask: size - 1, capacity: capacity, minUnexec: noUnexec}
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
	idx := (sb.head + sb.count) & sb.mask
	sb.count++
	e := &sb.entries[idx]
	*e = SBEntry{Seq: seq, Addr: addr, Size: size}
	if sb.minUnexec == noUnexec {
		sb.minUnexec = seq
	}
	return e
}

// MarkExecuted records that the entry's address/data are now known
// (callers must use this instead of setting Executed directly so the
// oldest-unexecuted cache stays coherent).
func (sb *StoreBuffer) MarkExecuted(e *SBEntry) {
	e.Executed = true
	if e.Seq != sb.minUnexec {
		return
	}
	sb.minUnexec = noUnexec
	for i := 0; i < sb.count; i++ {
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
	if sb.OnPop != nil {
		sb.OnPop(&sb.entries[sb.head])
	}
	sb.head = (sb.head + 1) & sb.mask
	sb.count--
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
	// Scan youngest -> oldest.
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
		m := e.Mask()
		if !m.Overlaps(want) {
			continue
		}
		if !m.Covers(want) {
			return FwdConflict, zero
		}
		// Full cover: extract the requested bytes from the store data.
		var out [8]byte
		off := int(addr&63) - int(e.Addr&63)
		copy(out[:size], e.Data[off:off+int(size)])
		return FwdHit, out
	}
	return FwdMiss, zero
}

// LookaheadLines visits up to k distinct line addresses of the oldest
// committed stores (drain-ahead RFO issue).
func (sb *StoreBuffer) LookaheadLines(k int, visit func(line uint64)) {
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
