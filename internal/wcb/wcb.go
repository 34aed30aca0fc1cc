// Package wcb models the Write Combining Buffers that TUS and CSB
// re-purpose to coalesce coherent stores across non-consecutive cache
// lines (Sec. III-B). Each buffer holds one line's worth of coalesced
// bytes plus a coalesced-group id (C_ID); buffers sharing a C_ID form
// an atomic group that must be written to the L1D together. It also
// provides the lexicographical sub-address order used for deadlock
// avoidance.
package wcb

import "tusim/internal/memsys"

// Lex returns the global lexicographical order key of a cache line:
// the low bits of the line address, matching the directory index
// (Sec. III-C chooses 16 bits).
func Lex(line uint64, bits int) uint64 {
	return (line >> 6) & (uint64(1)<<bits - 1)
}

// Buffer is one write-combining buffer.
type Buffer struct {
	Valid bool
	Line  uint64
	Data  memsys.LineData
	Mask  memsys.Mask
	CID   int
	// Order is the insertion sequence of the buffer's oldest store;
	// groups flush oldest-first.
	Order uint64
}

// InsertResult classifies an insertion attempt.
type InsertResult uint8

// Insertion outcomes.
const (
	// Inserted: the store was coalesced or placed in a free buffer.
	Inserted InsertResult = iota
	// NeedFlush: no buffer is free; the oldest group must be flushed.
	NeedFlush
	// LexConflict: the store's line shares a lex key with a different
	// line in the group it would join; coalescing is disabled for it
	// until the conflicting store is made visible (Sec. III-C).
	LexConflict
)

// Set is the array of WCBs of one core.
type Set struct {
	bufs    []Buffer
	lexBits int
	last    int // index of the buffer written by the previous store
	nextCID int
	order   uint64
	// Searches counts associative lookups (energy model).
	Searches uint64
	// CycleMerges counts atomic-group formations from WCB-level cycles.
	CycleMerges uint64
	// group is the scratch backing for OldestGroup (one outstanding
	// group per set, so a single buffer suffices).
	group []*Buffer
}

// NewSet builds n write-combining buffers.
func NewSet(n, lexBits int) *Set {
	return &Set{bufs: make([]Buffer, n), lexBits: lexBits, last: -1}
}

// Len returns the number of valid buffers.
func (s *Set) Len() int {
	n := 0
	for i := range s.bufs {
		if s.bufs[i].Valid {
			n++
		}
	}
	return n
}

// Empty reports whether no buffer holds data.
func (s *Set) Empty() bool { return s.Len() == 0 }

// Insert attempts to place a committed store. On a hit to a buffer
// other than the last one written, a cycle exists and every valid
// buffer is merged into one atomic group (with two buffers this is
// exactly the paper's rule).
func (s *Set) Insert(addr uint64, data []byte) InsertResult {
	line := addr &^ 63
	s.Searches++
	// Hit?
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.Valid || b.Line != line {
			continue
		}
		if i != s.last && s.last >= 0 && s.bufs[s.last].Valid {
			// Cycle: all current buffers become one atomic group —
			// unless that would put two lex-equal lines in one group.
			if s.lexConflictAll() {
				return LexConflict
			}
			cid := b.CID
			for j := range s.bufs {
				if s.bufs[j].Valid && s.bufs[j].CID != cid {
					s.bufs[j].CID = cid
					s.CycleMerges++
				}
			}
		}
		writeBytes(b, addr, data)
		s.last = i
		return Inserted
	}
	// Free buffer?
	for i := range s.bufs {
		b := &s.bufs[i]
		if b.Valid {
			continue
		}
		s.order++
		s.nextCID++
		*b = Buffer{Valid: true, Line: line, CID: s.nextCID, Order: s.order}
		writeBytes(b, addr, data)
		s.last = i
		return Inserted
	}
	return NeedFlush
}

// lexConflictAll reports whether any two valid buffers with distinct
// lines share a lex key (merging them all would break the global order).
// Pairwise scan: the buffer count is a small constant (2 by default),
// so this beats building a map every drain cycle.
func (s *Set) lexConflictAll() bool {
	for i := range s.bufs {
		bi := &s.bufs[i]
		if !bi.Valid {
			continue
		}
		ki := Lex(bi.Line, s.lexBits)
		for j := i + 1; j < len(s.bufs); j++ {
			bj := &s.bufs[j]
			if bj.Valid && bj.Line != bi.Line && Lex(bj.Line, s.lexBits) == ki {
				return true
			}
		}
	}
	return false
}

func writeBytes(b *Buffer, addr uint64, data []byte) {
	off := addr & 63
	copy(b.Data[off:], data)
	b.Mask |= memsys.MaskFor(addr, uint8(len(data)))
}

// OldestGroup returns the buffers of the atomic group containing the
// oldest store, or nil when empty. The returned buffers are live
// pointers into the set; call Release after flushing them. The slice
// itself is scratch owned by the set and is overwritten by the next
// OldestGroup call — callers flush one group at a time.
func (s *Set) OldestGroup() []*Buffer {
	oldest := -1
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.Valid {
			continue
		}
		if oldest < 0 || b.Order < s.bufs[oldest].Order {
			oldest = i
		}
	}
	if oldest < 0 {
		return nil
	}
	cid := s.bufs[oldest].CID
	group := s.group[:0]
	for i := range s.bufs {
		if s.bufs[i].Valid && s.bufs[i].CID == cid {
			group = append(group, &s.bufs[i])
		}
	}
	s.group = group
	return group
}

// Release invalidates the given buffers after their group was written.
func (s *Set) Release(group []*Buffer) {
	for _, b := range group {
		if s.last >= 0 && &s.bufs[s.last] == b {
			s.last = -1
		}
		b.Valid = false
		b.Mask = 0
	}
}

// Forward searches the buffers for load data.
func (s *Set) Forward(addr uint64, size uint8) (hit bool, conflict bool, out [8]byte) {
	line := addr &^ 63
	want := memsys.MaskFor(addr, size)
	s.Searches++
	for i := range s.bufs {
		b := &s.bufs[i]
		if !b.Valid || b.Line != line {
			continue
		}
		if !b.Mask.Overlaps(want) {
			return false, false, out
		}
		if !b.Mask.Covers(want) {
			return false, true, out
		}
		off := addr & 63
		copy(out[:size], b.Data[off:])
		return true, false, out
	}
	return false, false, out
}
