package memsys

import "slices"

// setPage is how many sets a page holds: 128 slice headers plus the
// allocator's header fill a 3,200 B size class (64 would waste 14%).
const setPage = 128

// setTable indexes a cache's resident entries by set: the one table
// behind L1D, L2 and the LLC. Capacity is a bound, not an allocation: a
// page of sets exists from the first add to one of them, so a machine
// pays for the sets its traffic touches (a litmus machine does not zero,
// nor the collector scan, 65,536 LLC slice headers); a lookup is two
// indexed loads.
type setTable[T any] struct {
	n     uint64 // set count
	pages []*[setPage][]*T
}

func newSetTable[T any](sets int) setTable[T] {
	return setTable[T]{n: uint64(sets), pages: make([]*[setPage][]*T, (sets+setPage-1)/setPage)}
}

// of returns the set a line maps to.
func (t *setTable[T]) of(line uint64) uint64 { return (line >> 6) % t.n }

// ways returns set s's entries: insertion order, except that remove
// swaps the last entry into the hole it leaves.
func (t *setTable[T]) ways(s uint64) []*T {
	if pg := t.pages[s/setPage]; pg != nil {
		return pg[s%setPage]
	}
	return nil
}

func (t *setTable[T]) add(s uint64, x *T) {
	if t.pages[s/setPage] == nil {
		t.pages[s/setPage] = new([setPage][]*T)
	}
	w := &t.pages[s/setPage][s%setPage]
	*w = append(*w, x)
}

func (t *setTable[T]) remove(s uint64, x *T) {
	w := t.ways(s)
	if i := slices.Index(w, x); i >= 0 {
		w[i] = w[len(w)-1]
		t.pages[s/setPage][s%setPage] = w[:len(w)-1]
	}
}
