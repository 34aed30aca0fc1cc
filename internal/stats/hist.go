package stats

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// HistBuckets is the number of power-of-two buckets every Histogram
// carries. Bucket i counts samples v with 2^(i-1) <= v < 2^i (bucket 0
// counts v == 0), and the last bucket absorbs everything larger. 32
// buckets cover values up to 2^31, far beyond any occupancy or latency
// the simulator produces.
const HistBuckets = 32

// Histogram is a fixed-bucket power-of-two histogram. Like Counter it
// is an interned handle: components obtain one from Set.Histogram and
// call Observe on the hot path. Updates are atomic adds, so producers
// on different goroutines may share a handle, and Observe never
// allocates — the instrumented drain path stays zero-allocation.
//
// Bucket bounds are fixed at construction (power-of-two), so two
// histograms with the same name always merge bucket-for-bucket and the
// formatted output is deterministic across runs and worker counts.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// bucketOf maps a sample to its power-of-two bucket index.
func bucketOf(v uint64) int {
	// bits.Len64(0) == 0 -> bucket 0; bits.Len64(1) == 1 -> bucket 1.
	b := bits.Len64(v)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one sample. It is a handful of atomic adds and never
// allocates; safe for concurrent producers.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n samples of v, as n calls of Observe would.
func (h *Histogram) ObserveN(v, n uint64) {
	h.buckets[bucketOf(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for n > 0 {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// HistSnapshot is a consistent-enough copy of a histogram's state for
// serialization and reporting. (Producers may race a snapshot; the
// harness only snapshots between run phases, when histograms are
// quiescent, so the copy is exact in practice.)
type HistSnapshot struct {
	Buckets [HistBuckets]uint64
	Count   uint64
	Sum     uint64
	Max     uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// add folds a snapshot into the histogram (Merge support).
func (h *Histogram) add(s HistSnapshot) {
	for i, v := range s.Buckets {
		if v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		cur := h.max.Load()
		if s.Max <= cur || h.max.CompareAndSwap(cur, s.Max) {
			break
		}
	}
}

// reset zeroes the histogram, keeping the handle valid.
func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of
// the recorded samples: the exclusive upper bound of the bucket that
// contains the q-th sample. Returns 0 when the histogram is empty.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			return BucketUpper(i)
		}
	}
	return s.Max
}

// BucketUpper returns the exclusive upper bound of bucket i: samples in
// bucket i satisfy bucketLower(i) <= v < BucketUpper(i).
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 1
	}
	if i >= HistBuckets-1 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1) << uint(i-1)
}

// String formats the histogram for human consumption: count, mean,
// max, p50/p90/p99 upper bounds, and the non-empty buckets.
func (s HistSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%.2f max=%d p50<=%d p90<=%d p99<=%d",
		s.Count, Ratio(s.Sum, s.Count), s.Max,
		s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99))
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if i >= HistBuckets-1 {
			fmt.Fprintf(&b, " [%d,inf):%d", bucketLower(i), c)
		} else {
			fmt.Fprintf(&b, " [%d,%d):%d", bucketLower(i), BucketUpper(i), c)
		}
	}
	return b.String()
}

// ---------- Set integration ----------

// histogram is Histogram without the lock; callers must hold s.mu.
func (s *Set) histogram(name string) *Histogram {
	i := histNames.intern(name)
	if h := s.hists.get(i); h != nil {
		return h
	}
	return s.hists.add(i)
}

// Histogram returns the histogram with the given name, creating it
// empty on first use. The returned handle stays valid for the Set's
// lifetime.
func (s *Set) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.histogram(name)
}

// HistNames returns all registered histogram names in creation order.
func (s *Set) HistNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hists.names(&histNames)
}

// snapshotHists captures names (creation order) and snapshots together.
func (s *Set) snapshotHists() ([]string, []HistSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps := make([]HistSnapshot, s.hists.n)
	for p := range snaps {
		snaps[p] = s.hists.at(p).Snapshot()
	}
	return s.hists.names(&histNames), snaps
}

// HistSnapshots returns every histogram's snapshot keyed by name.
func (s *Set) HistSnapshots() map[string]HistSnapshot {
	names, snaps := s.snapshotHists()
	out := make(map[string]HistSnapshot, len(names))
	for i, n := range names {
		out[n] = snaps[i]
	}
	return out
}

// MergeHistSnapshot folds a serialized histogram snapshot into the
// named histogram (disk-cache rehydration).
func (s *Set) MergeHistSnapshot(name string, snap HistSnapshot) {
	s.mu.Lock()
	h := s.histogram(name)
	s.mu.Unlock()
	h.add(snap)
}
