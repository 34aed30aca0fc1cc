// Package stats collects named counters and distributions from every
// simulated component. A Set is cheap to update on the hot path (an
// atomic add through interned Counter handles) and can be merged and
// formatted by the experiment harness.
//
// Concurrency: the parallel harness runs one simulated system per
// goroutine, each with its own Sets, but merges them into shared
// aggregates and snapshots them while producers may still be running.
// Counter updates are atomic and every Set registry operation (Counter,
// Get, Merge, Snapshot, Reset, Names, String) is guarded by a
// mutex, so a Set is safe for concurrent use. Merge acquires the two
// Sets' locks strictly in sequence (snapshot the source, then add into
// the destination), so concurrent cross-merges cannot deadlock.
package stats

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. Components hold a
// *Counter obtained from Set.Counter and bump it directly; updates are
// atomic, so producers on different goroutines may share a handle.
type Counter struct{ v atomic.Uint64 }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Set is a registry of counters belonging to one component or system.
type Set struct {
	prefix string

	mu       sync.Mutex
	counters slab[Counter]
	hists    slab[Histogram]
}

// schema maps a name to a small index, once for every Set in the
// process (counterNames, histNames). A machine's components register the
// same names, so it stops growing after the first machine of each shape.
// It only grows, under mu; readers load the published table unlocked.
type schema struct {
	mu  sync.Mutex
	tab atomic.Pointer[table]
}

type table struct {
	index map[string]int32
	names []string // by index; an append never touches a published prefix
}

var counterNames, histNames schema

func init() {
	counterNames.tab.Store(new(table))
	histNames.tab.Store(new(table))
}

// intern returns name's index, adding it on first use.
func (sc *schema) intern(name string) int32 {
	if i, ok := sc.tab.Load().index[name]; ok {
		return i
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	old := sc.tab.Load()
	i, ok := old.index[name]
	if !ok {
		i = int32(len(old.names))
		t := &table{index: make(map[string]int32, i+1), names: append(old.names, name)}
		maps.Copy(t.index, old.index)
		t.index[name] = i
		sc.tab.Store(t)
	}
	return i
}

// hints holds, per Set prefix, the most counters and histograms one Set
// has registered, so that a new Set's first slabs fit its machine.
var (
	hintMu sync.Mutex
	hints  = map[string]*[2]atomic.Int32{}
)

// slab holds a Set's counters or histograms in registration order: the
// first in one chunk sized to what Sets of its prefix registered before,
// any more one by one. Neither moves, so handles stay valid.
type slab[T any] struct {
	first []T
	more  []*T
	n     int
	pos   []int32 // by schema index: 1 + registration position; 0 = none
	hint  *atomic.Int32
}

// at returns the element at registration position p.
func (s *slab[T]) at(p int) *T {
	if p < len(s.first) {
		return &s.first[p]
	}
	return s.more[p-len(s.first)]
}

// get returns the element registered under schema index i, or nil.
func (s *slab[T]) get(i int32) *T {
	if int(i) >= len(s.pos) || s.pos[i] == 0 {
		return nil
	}
	return s.at(int(s.pos[i]) - 1)
}

// add registers schema index i (not yet in s) and returns its element.
func (s *slab[T]) add(i int32) *T {
	if s.n == 0 {
		s.first = make([]T, 0, max(s.hint.Load(), 4))
	}
	if len(s.first) < cap(s.first) {
		s.first = s.first[:s.n+1]
	} else {
		s.more = append(s.more, new(T))
	}
	if int(i) >= len(s.pos) {
		s.pos = append(s.pos, make([]int32, int(i)+1-len(s.pos))...)
	}
	s.n++
	s.pos[i] = int32(s.n)
	for h := s.hint.Load(); int32(s.n) > h && !s.hint.CompareAndSwap(h, int32(s.n)); h = s.hint.Load() {
	}
	return s.at(s.n - 1)
}

// names returns the registered names in registration order.
func (s *slab[T]) names(sc *schema) []string {
	tab, out := sc.tab.Load(), make([]string, s.n)
	for i, p := range s.pos {
		if p != 0 {
			out[p-1] = tab.names[i]
		}
	}
	return out
}

// NewSet creates a stats registry. The prefix (e.g. "core0") is
// prepended to every counter name in formatted output.
func NewSet(prefix string) *Set {
	hintMu.Lock()
	h := hints[prefix]
	if h == nil {
		h = new([2]atomic.Int32)
		hints[prefix] = h
	}
	hintMu.Unlock()
	nc := len(counterNames.tab.Load().names)
	pos := make([]int32, nc+len(histNames.tab.Load().names))
	s := &Set{prefix: prefix}
	s.counters.pos, s.counters.hint = pos[:nc:nc], &h[0]
	s.hists.pos, s.hists.hint = pos[nc:], &h[1]
	return s
}

// Prefix returns the formatting prefix the Set was created with.
func (s *Set) Prefix() string { return s.prefix }

// counter is Counter without the lock; callers must hold s.mu.
func (s *Set) counter(name string) *Counter {
	i := counterNames.intern(name)
	if c := s.counters.get(i); c != nil {
		return c
	}
	return s.counters.add(i)
}

// Counter returns the counter with the given name, creating it at zero
// on first use. The returned handle stays valid for the Set's lifetime.
func (s *Set) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counter(name)
}

// Get returns the value of a counter, or zero if it was never created.
func (s *Set) Get(name string) uint64 {
	i, ok := counterNames.tab.Load().index[name]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.counters.get(i); ok && c != nil {
		return c.Value()
	}
	return 0
}

// Names returns all registered counter names in creation order.
func (s *Set) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters.names(&counterNames)
}

// snapshotOrdered captures names (creation order) and values together.
func (s *Set) snapshotOrdered() ([]string, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vals := make([]uint64, s.counters.n)
	for p := range vals {
		vals[p] = s.counters.at(p).Value()
	}
	return s.counters.names(&counterNames), vals
}

// Merge adds every counter from other into s (matching by name). It is
// safe to call while producers are still bumping either Set; each
// source counter contributes the value it held when Merge sampled it.
func (s *Set) Merge(other *Set) {
	names, vals := other.snapshotOrdered()
	hnames, hsnaps := other.snapshotHists()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, name := range names {
		s.counter(name).Add(vals[i])
	}
	for i, name := range hnames {
		s.histogram(name).add(hsnaps[i])
	}
}

// Snapshot captures the current counter values.
func (s *Set) Snapshot() map[string]uint64 {
	names, vals := s.snapshotOrdered()
	out := make(map[string]uint64, len(names))
	for i, n := range names {
		out[n] = vals[i]
	}
	return out
}

// Reset zeroes all counters and histograms, keeping handles valid
// (the warm-up discard).
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := 0; p < s.counters.n; p++ {
		s.counters.at(p).v.Store(0)
	}
	for p := 0; p < s.hists.n; p++ {
		s.hists.at(p).reset()
	}
}

// String formats all counters, one per line, sorted by name.
func (s *Set) String() string {
	names, vals := s.snapshotOrdered()
	byName := make(map[string]uint64, len(names))
	for i, n := range names {
		byName[n] = vals[i]
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s.%s = %d\n", s.prefix, n, byName[n])
	}
	hnames, hsnaps := s.snapshotHists()
	byHist := make(map[string]HistSnapshot, len(hnames))
	for i, n := range hnames {
		byHist[n] = hsnaps[i]
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		fmt.Fprintf(&b, "%s.%s: %s\n", s.prefix, n, byHist[n])
	}
	return b.String()
}

// Ratio returns a/b as float64, or 0 when b is zero.
func Ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
