package stats

import (
	"strings"
	"sync"
	"testing"
)

// TestBucketBounds pins the power-of-two bucketing contract: bucket 0
// holds only zero, bucket i holds [2^(i-1), 2^i), and the last bucket
// absorbs everything larger. The table walks every boundary.
func TestBucketBounds(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 30, 31},
		{^uint64(0), HistBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.v); got != tc.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.bucket)
		}
		lo, hi := BucketLower(tc.bucket), BucketUpper(tc.bucket)
		if tc.v < lo || (tc.bucket < HistBuckets-1 && tc.v >= hi) {
			t.Errorf("value %d not in its own bucket's range [%d,%d)", tc.v, lo, hi)
		}
	}
	if BucketUpper(-1) != 1 || BucketLower(-1) != 0 {
		t.Error("negative bucket index must clamp to bucket 0 bounds")
	}
	if BucketUpper(HistBuckets-1) != ^uint64(0) {
		t.Error("last bucket must be unbounded above")
	}
}

func TestHistogramObserve(t *testing.T) {
	set := NewSet("x")
	h := set.Histogram("lat")
	if names := set.HistNames(); len(names) != 1 || names[0] != "lat" {
		t.Fatalf("HistNames = %q", names)
	}
	for _, v := range []uint64{0, 1, 2, 3, 100, 7} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 113 {
		t.Errorf("Sum = %d, want 113", h.Sum())
	}
	if h.Max() != 100 {
		t.Errorf("Max = %d, want 100", h.Max())
	}
	if want := 113.0 / 6.0; h.Mean() != want {
		t.Errorf("Mean = %v, want %v", h.Mean(), want)
	}
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 2 || s.Buckets[3] != 1 || s.Buckets[7] != 1 {
		t.Errorf("bucket placement wrong: %v", s.Buckets[:8])
	}
	if s.Count != 6 || s.Sum != 113 || s.Max != 100 {
		t.Errorf("snapshot disagrees with handle: %+v", s)
	}
}

// TestHistogramObserveConcurrent verifies Observe is safe to share
// between producers: totals must be exact, the max must survive the
// CAS race.
func TestHistogramObserveConcurrent(t *testing.T) {
	h := new(Histogram)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("Count = %d, want %d", h.Count(), workers*per)
	}
	if want := uint64(workers*per) * (workers*per - 1) / 2; h.Sum() != want {
		t.Errorf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Max() != workers*per-1 {
		t.Errorf("Max = %d, want %d", h.Max(), workers*per-1)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	h := NewSet("t").Histogram("hot")
	if n := testing.AllocsPerRun(1000, func() { h.Observe(42) }); n != 0 {
		t.Errorf("Observe allocates %v per call, want 0 (drain-path contract)", n)
	}
}

// TestHistogramObserveN: n samples at once leave exactly the state n
// calls of Observe leave, zero samples included.
func TestHistogramObserveN(t *testing.T) {
	for _, c := range []struct{ v, n uint64 }{{0, 5}, {1, 1}, {37, 1000}, {1 << 40, 3}, {9, 0}} {
		bulk, one := &Histogram{}, &Histogram{}
		bulk.Observe(4) // a prior sample, so max and sums start nonzero
		one.Observe(4)
		bulk.ObserveN(c.v, c.n)
		for i := uint64(0); i < c.n; i++ {
			one.Observe(c.v)
		}
		if got, want := bulk.Snapshot(), one.Snapshot(); got != want {
			t.Errorf("ObserveN(%d, %d) = %+v, want %+v", c.v, c.n, got, want)
		}
	}
}

func TestObserveNZeroAlloc(t *testing.T) {
	h := NewSet("t").Histogram("hot")
	if n := testing.AllocsPerRun(1000, func() { h.ObserveN(42, 7) }); n != 0 {
		t.Errorf("ObserveN allocates %v per call, want 0", n)
	}
}

// TestHistogramObserveNConcurrent: ObserveN shares a handle between
// producers as Observe does; totals stay exact and the largest value
// survives the max CAS race.
func TestHistogramObserveNConcurrent(t *testing.T) {
	h := new(Histogram)
	const workers, per, n = 8, 1000, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveN(uint64(w*per+i), n)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per*n {
		t.Errorf("Count = %d, want %d", h.Count(), workers*per*n)
	}
	if want := n * uint64(workers*per) * (workers*per - 1) / 2; h.Sum() != want {
		t.Errorf("Sum = %d, want %d", h.Sum(), want)
	}
	if h.Max() != workers*per-1 {
		t.Errorf("Max = %d, want %d", h.Max(), workers*per-1)
	}
}

func TestQuantile(t *testing.T) {
	var empty HistSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h := new(Histogram)
	// 90 samples in [1,2) and 10 in [8,16): p50 lands in the first
	// bucket, p99 in the second.
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(9)
	}
	s := h.Snapshot()
	if got := s.Quantile(0.50); got != 2 {
		t.Errorf("p50 upper = %d, want 2", got)
	}
	if got := s.Quantile(0.99); got != 16 {
		t.Errorf("p99 upper = %d, want 16", got)
	}
	// Out-of-range q clamps instead of panicking.
	if got := s.Quantile(-1); got != 2 {
		t.Errorf("Quantile(-1) = %d, want clamp to q=0 (first bucket upper 2)", got)
	}
	if got := s.Quantile(2); got != 16 {
		t.Errorf("Quantile(2) = %d, want clamp to q=1 (last bucket upper 16)", got)
	}
}

func TestHistSnapshotString(t *testing.T) {
	h := new(Histogram)
	h.Observe(0)
	h.Observe(3)
	h.Observe(3)
	got := h.Snapshot().String()
	for _, want := range []string{"count=3", "mean=2.00", "max=3", "[0,1):1", "[2,4):2"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	// The overflow bucket renders with an open upper bound.
	h2 := new(Histogram)
	h2.Observe(^uint64(0))
	if got := h2.Snapshot().String(); !strings.Contains(got, ",inf):1") {
		t.Errorf("overflow bucket not rendered open-ended: %q", got)
	}
}

// TestSetHistogramInterning pins the handle contract: the same name
// always returns the same histogram, and names come back in creation
// order (the report and cache layers rely on the ordering).
func TestSetHistogramInterning(t *testing.T) {
	s := NewSet("core0")
	if s.Prefix() != "core0" {
		t.Fatalf("Prefix = %q", s.Prefix())
	}
	a := s.Histogram("b_second")
	b := s.Histogram("a_first")
	if s.Histogram("b_second") != a {
		t.Error("same name returned a different handle")
	}
	a.Observe(5)
	b.Observe(1)
	if got := s.HistNames(); len(got) != 2 || got[0] != "b_second" || got[1] != "a_first" {
		t.Errorf("HistNames = %v, want creation order [b_second a_first]", got)
	}
	snaps := s.HistSnapshots()
	if snaps["b_second"].Count != 1 || snaps["a_first"].Count != 1 {
		t.Errorf("HistSnapshots = %v", snaps)
	}
}

// TestMergeAndResetHistograms covers the worker-pool path (Merge folds
// shard sets into the aggregate) and the warm-up path (Reset zeroes
// histograms but keeps handles valid).
func TestMergeAndResetHistograms(t *testing.T) {
	agg := NewSet("agg")
	agg.Histogram("lat").Observe(4)

	shard := NewSet("shard")
	shard.Histogram("lat").Observe(16)
	shard.Histogram("occ").Observe(2)
	agg.Merge(shard)

	snaps := agg.HistSnapshots()
	if s := snaps["lat"]; s.Count != 2 || s.Sum != 20 || s.Max != 16 {
		t.Errorf("merged lat = %+v, want count 2 sum 20 max 16", s)
	}
	if s := snaps["occ"]; s.Count != 1 {
		t.Errorf("merge must create missing histograms: occ = %+v", s)
	}

	h := agg.Histogram("lat")
	agg.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Errorf("Reset left lat at count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if s := h.Snapshot(); s.Buckets[3] != 0 || s.Buckets[5] != 0 {
		t.Error("Reset left bucket counts behind")
	}
	h.Observe(7) // handle stays live after Reset
	if h.Count() != 1 {
		t.Error("handle dead after Reset")
	}
}

// TestMergeHistSnapshot covers disk-cache rehydration: a serialized
// snapshot folds into a fresh set exactly.
func TestMergeHistSnapshot(t *testing.T) {
	src := NewSet("src")
	for _, v := range []uint64{1, 2, 300} {
		src.Histogram("lat").Observe(v)
	}
	snap := src.HistSnapshots()["lat"]

	dst := NewSet("dst")
	dst.MergeHistSnapshot("lat", snap)
	dst.MergeHistSnapshot("lat", snap)
	got := dst.HistSnapshots()["lat"]
	if got.Count != 6 || got.Sum != 606 || got.Max != 300 {
		t.Errorf("double rehydration = %+v, want count 6 sum 606 max 300", got)
	}
	for i := range got.Buckets {
		if got.Buckets[i] != 2*snap.Buckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, got.Buckets[i], 2*snap.Buckets[i])
		}
	}
}

// TestQuantileUpperBoundSemantics pins the p50/p95/p99 upper-bound
// contract on known distributions; tusload's SLO gate reads these
// values, so their semantics must not drift. Every quantile is the
// exclusive upper bound of the power-of-two bucket holding the q-th
// sample.
func TestQuantileUpperBoundSemantics(t *testing.T) {
	cases := []struct {
		name          string
		observe       func(h *Histogram)
		p50, p95, p99 uint64
	}{
		{
			// Uniform 1..1000: the 500th sample is 500, in bucket
			// [256,512); the 950th and 990th are in [512,1024).
			name: "uniform-1-1000",
			observe: func(h *Histogram) {
				for v := uint64(1); v <= 1000; v++ {
					h.Observe(v)
				}
			},
			p50: 512, p95: 1024, p99: 1024,
		},
		{
			// Point mass: every quantile lands in the single occupied
			// bucket [4,8).
			name: "point-mass-7",
			observe: func(h *Histogram) {
				for i := 0; i < 1000; i++ {
					h.Observe(7)
				}
			},
			p50: 8, p95: 8, p99: 8,
		},
		{
			// Two modes, 90%/10%: the median sits in the low mode's
			// bucket [1,2); the tail quantiles in the high mode's
			// [512,1024).
			name: "two-mode-1-1000",
			observe: func(h *Histogram) {
				for i := 0; i < 900; i++ {
					h.Observe(1)
				}
				for i := 0; i < 100; i++ {
					h.Observe(1000)
				}
			},
			p50: 2, p95: 1024, p99: 1024,
		},
		{
			// Zero samples occupy bucket 0, whose upper bound is 1.
			name: "all-zero",
			observe: func(h *Histogram) {
				for i := 0; i < 10; i++ {
					h.Observe(0)
				}
			},
			p50: 1, p95: 1, p99: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := new(Histogram)
			tc.observe(h)
			s := h.Snapshot()
			if got := s.Quantile(0.50); got != tc.p50 {
				t.Errorf("p50 = %d, want %d", got, tc.p50)
			}
			if got := s.Quantile(0.95); got != tc.p95 {
				t.Errorf("p95 = %d, want %d", got, tc.p95)
			}
			if got := s.Quantile(0.99); got != tc.p99 {
				t.Errorf("p99 = %d, want %d", got, tc.p99)
			}
			// The summary export must agree with the raw quantile calls.
			sum := s.Summary()
			if sum.P50 != tc.p50 || sum.P95 != tc.p95 || sum.P99 != tc.p99 {
				t.Errorf("Summary quantiles = %d/%d/%d, want %d/%d/%d",
					sum.P50, sum.P95, sum.P99, tc.p50, tc.p95, tc.p99)
			}
			if sum.Count != s.Count || sum.Max != s.Max {
				t.Errorf("Summary count/max = %d/%d, want %d/%d", sum.Count, sum.Max, s.Count, s.Max)
			}
		})
	}
}

// TestQuantSummaryEmpty: an empty histogram exports an all-zero summary
// (no NaNs leak into the JSON report).
func TestQuantSummaryEmpty(t *testing.T) {
	var s HistSnapshot
	if got := s.Summary(); got != (QuantSummary{}) {
		t.Errorf("empty summary = %+v, want zero value", got)
	}
}
