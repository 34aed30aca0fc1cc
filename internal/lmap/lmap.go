// Package lmap provides the open-addressed line-map and slab pool that
// back the simulator's hot per-line state (private line records and
// the miss and write-back records they name, directory entries and
// transactions). The built-in map[uint64]*T
// these replaced paid an interface-free but still branchy runtime call
// plus a heap allocation per inserted bucket chain; Map is a flat
// power-of-two open-addressed table with linear probing and
// backward-shift deletion, and Pool recycles entry structs through a
// slab-backed free list, so steady-state simulation performs zero
// allocations in these containers.
//
// Every Map/Pool can also run in *reference mode*, where Map delegates
// to a plain map[uint64]*T and Pool hands out a freshly allocated,
// zeroed struct on every Get (never recycling). The reference
// implementations are the trivially correct originals; the differential
// state-identity rig runs the whole simulator on both modes with
// identical seeds and asserts identical state at every drain point.
// Because reference Pools never reuse memory, any code path that fails
// to reset a recycled struct's fields diverges immediately. Machines
// choose the mode from config.Reference (NewRef, NewPoolRef).
package lmap

import "slices"

// hash is the splitmix64 finalizer: line addresses are multiples of the
// cache-line size, so the low bits carry no entropy and must be mixed
// before masking.
func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Map is an open-addressed uint64 → *T hash map. A nil value marks an
// empty slot, so callers must never Put a nil pointer (Put panics).
// The zero value of Map is NOT ready to use; construct with New or
// NewRef.
type Map[T any] struct {
	keys []uint64
	vals []*T
	n    int
	mask uint64
	ref  map[uint64]*T // non-nil in reference mode
}

// New returns an empty open-addressed map.
func New[T any]() *Map[T] { return NewRef[T](false) }

// NewRef returns an empty map; ref selects the reference (built-in
// map) implementation instead of the open-addressed table.
func NewRef[T any](ref bool) *Map[T] {
	if ref {
		return &Map[T]{ref: make(map[uint64]*T)}
	}
	const initCap = 16
	return &Map[T]{
		keys: make([]uint64, initCap),
		vals: make([]*T, initCap),
		mask: initCap - 1,
	}
}

// Len reports the number of stored entries.
func (m *Map[T]) Len() int {
	if m.ref != nil {
		return len(m.ref)
	}
	return m.n
}

// Get returns the value stored under k, or nil.
func (m *Map[T]) Get(k uint64) *T {
	if m.ref != nil {
		return m.ref[k]
	}
	i := hash(k) & m.mask
	for m.vals[i] != nil {
		if m.keys[i] == k {
			return m.vals[i]
		}
		i = (i + 1) & m.mask
	}
	return nil
}

// Put stores v under k, replacing any existing entry. v must be
// non-nil (nil marks an empty slot).
func (m *Map[T]) Put(k uint64, v *T) {
	if v == nil {
		panic("lmap: Put(nil)")
	}
	if m.ref != nil {
		m.ref[k] = v
		return
	}
	if m.n >= len(m.vals)*3/4 {
		m.grow()
	}
	i := hash(k) & m.mask
	for m.vals[i] != nil {
		if m.keys[i] == k {
			m.vals[i] = v
			return
		}
		i = (i + 1) & m.mask
	}
	m.keys[i] = k
	m.vals[i] = v
	m.n++
}

// Delete removes the entry under k if present, using backward-shift
// deletion (no tombstones, so probe chains never degrade).
func (m *Map[T]) Delete(k uint64) {
	if m.ref != nil {
		delete(m.ref, k)
		return
	}
	i := hash(k) & m.mask
	for {
		if m.vals[i] == nil {
			return // not present
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & m.mask
	}
	// Backward-shift: walk the probe chain after i, moving back any
	// entry whose ideal slot means the vacancy would break its lookup.
	j := i
	for {
		j = (j + 1) & m.mask
		if m.vals[j] == nil {
			break
		}
		h := hash(m.keys[j]) & m.mask
		// Entry at j may move into the hole at i iff i lies on the
		// cyclic probe path from h to j.
		if (j > i && (h <= i || h > j)) || (j < i && h <= i && h > j) {
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	m.vals[i] = nil
	m.n--
}

// Range calls fn for every entry. Iteration order is unspecified (and
// differs between the two implementations): callers that let order
// reach observable output must sort, exactly as they had to with the
// built-in map.
func (m *Map[T]) Range(fn func(k uint64, v *T)) {
	if m.ref != nil {
		for k, v := range m.ref {
			fn(k, v)
		}
		return
	}
	for i, v := range m.vals {
		if v != nil {
			fn(m.keys[i], v)
		}
	}
}

// SortedKeys returns the keys in ascending order, for callers whose
// output must not depend on either implementation's iteration order.
func (m *Map[T]) SortedKeys() []uint64 {
	keys := make([]uint64, 0, m.Len())
	m.Range(func(k uint64, _ *T) { keys = append(keys, k) })
	slices.Sort(keys)
	return keys
}

func (m *Map[T]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	cap2 := len(oldVals) * 2
	m.keys = make([]uint64, cap2)
	m.vals = make([]*T, cap2)
	m.mask = uint64(cap2 - 1)
	for i, v := range oldVals {
		if v == nil {
			continue
		}
		k := oldKeys[i]
		j := hash(k) & m.mask
		for m.vals[j] != nil {
			j = (j + 1) & m.mask
		}
		m.keys[j] = k
		m.vals[j] = v
	}
}

// poolChunk is the largest slab granule: slabs double from poolFirst
// entry structs up to 64, so a machine that touches four lines does
// not pay for 64 of every entry type, while long-running simulations
// still touch the allocator O(peak/64) times instead of O(events).
const (
	poolFirst = 4
	poolChunk = 64
)

// Pool is a slab-backed free-list allocator for entry structs. Get
// returns a recycled struct when one is available; callers own the
// reset discipline (Put does not zero, so slices inside T keep their
// grown capacity across reuse). In reference mode Get always returns a
// fresh zeroed struct and Put discards, which makes any missing reset
// observable as a state divergence in the differential rig.
type Pool[T any] struct {
	free []*T
	slab []T
	next int // size of the next slab
	ref  bool
}

// NewPool returns a recycling pool.
func NewPool[T any]() *Pool[T] { return NewPoolRef[T](false) }

// NewPoolRef returns a pool; ref selects always-fresh allocation.
func NewPoolRef[T any](ref bool) *Pool[T] { return &Pool[T]{next: poolFirst, ref: ref} }

// Get returns an entry struct. In fast mode the struct may be recycled
// and must be fully reset by the caller before use.
func (p *Pool[T]) Get() *T {
	if p.ref {
		return new(T)
	}
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	if len(p.slab) == 0 {
		p.slab = make([]T, p.next)
		p.next = min(2*p.next, poolChunk)
	}
	v := &p.slab[0]
	p.slab = p.slab[1:]
	return v
}

// Put returns an entry struct to the free list. The caller must not
// retain any reference to v afterwards.
func (p *Pool[T]) Put(v *T) {
	if p.ref || v == nil {
		return
	}
	p.free = append(p.free, v)
}

// Records is a Pool whose structs also have dense ids (from 1), so an
// event can name its record in an event.Func2 argument instead of
// closing over a pointer. An id is recycled with its struct; in
// reference mode every Get returns a fresh zeroed struct under a fresh
// id, and Put retires the id. The zero value is not usable; construct
// with NewRecordsRef.
type Records[T any] struct {
	pool Pool[T]
	at   []*T // at[id-1]; nil once retired in reference mode
	free []uint32
}

// NewRecordsRef returns an empty record pool; ref selects always-fresh
// allocation, as NewPoolRef does.
func NewRecordsRef[T any](ref bool) *Records[T] {
	return &Records[T]{pool: Pool[T]{next: poolFirst, ref: ref}}
}

// Get returns a record and its id. A recycled record must be fully
// reset by the caller before use.
func (r *Records[T]) Get() (uint32, *T) {
	if n := len(r.free); n > 0 {
		id := r.free[n-1]
		r.free = r.free[:n-1]
		return id, r.at[id-1]
	}
	v := r.pool.Get()
	r.at = append(r.at, v)
	return uint32(len(r.at)), v
}

// ByID returns the record with the given id.
func (r *Records[T]) ByID(id uint32) *T { return r.at[id-1] }

// Put recycles record id; the caller must not use it afterwards.
func (r *Records[T]) Put(id uint32) {
	if r.pool.ref {
		r.at[id-1] = nil
		return
	}
	r.free = append(r.free, id)
}

// Range calls fn for every record ever handed out and not retired, in
// id order — free ones included, which callers tell apart by their own
// state.
func (r *Records[T]) Range(fn func(id uint32, v *T)) {
	for i, v := range r.at {
		if v != nil {
			fn(uint32(i+1), v)
		}
	}
}
