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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. Components hold a
// *Counter obtained from Set.Counter and bump it directly; updates are
// atomic, so producers on different goroutines may share a handle.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

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
	counters map[string]*Counter
	order    []string

	hists     map[string]*Histogram
	histOrder []string
}

// setSizeHint sizes a Set's name map and registration order once for
// the ~50 counters a core's components register while its machine is
// built (eight names hold its histograms); the map's three rehashes
// were a tenth of a litmus machine's life, the order's doublings 3%.
const setSizeHint = 64

// NewSet creates a stats registry. The prefix (e.g. "core0") is
// prepended to every counter name in formatted output.
func NewSet(prefix string) *Set {
	return &Set{prefix: prefix, counters: make(map[string]*Counter, setSizeHint),
		order: make([]string, 0, setSizeHint), histOrder: make([]string, 0, 8)}
}

// Prefix returns the formatting prefix the Set was created with.
func (s *Set) Prefix() string { return s.prefix }

// counter is Counter without the lock; callers must hold s.mu.
func (s *Set) counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	s.counters[name] = c
	s.order = append(s.order, name)
	return c
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
	s.mu.Lock()
	c, ok := s.counters[name]
	s.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// Names returns all registered counter names in creation order.
func (s *Set) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// snapshotOrdered captures names (creation order) and values together.
func (s *Set) snapshotOrdered() ([]string, []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, len(s.order))
	copy(names, s.order)
	vals := make([]uint64, len(names))
	for i, n := range names {
		vals[i] = s.counters[n].Value()
	}
	return names, vals
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
	for _, c := range s.counters {
		c.v.Store(0)
	}
	for _, h := range s.hists {
		h.reset()
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
