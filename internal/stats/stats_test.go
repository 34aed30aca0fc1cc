package stats

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	s := NewSet("core0")
	c := s.Counter("loads")
	c.Inc()
	c.Add(4)
	if got := s.Get("loads"); got != 5 {
		t.Fatalf("loads = %d, want 5", got)
	}
	if s.Get("missing") != 0 {
		t.Fatal("missing counter should read 0")
	}
	if names := s.Names(); len(names) != 1 || names[0] != "loads" {
		t.Fatalf("Names = %q", names)
	}
}

func TestCounterHandleStable(t *testing.T) {
	s := NewSet("x")
	a := s.Counter("n")
	b := s.Counter("n")
	if a != b {
		t.Fatal("Counter must intern handles by name")
	}
}

func TestMerge(t *testing.T) {
	a := NewSet("sys")
	b := NewSet("core1")
	a.Counter("stores").Add(10)
	b.Counter("stores").Add(7)
	b.Counter("fences").Add(2)
	a.Merge(b)
	if a.Get("stores") != 17 || a.Get("fences") != 2 {
		t.Fatalf("merge wrong: stores=%d fences=%d", a.Get("stores"), a.Get("fences"))
	}
}

func TestReset(t *testing.T) {
	s := NewSet("x")
	c := s.Counter("n")
	c.Add(9)
	s.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero counter")
	}
	c.Inc()
	if s.Get("n") != 1 {
		t.Fatal("handle invalid after Reset")
	}
}

func TestStringFormat(t *testing.T) {
	s := NewSet("c")
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	out := s.String()
	ia, ib := strings.Index(out, "c.a = 1"), strings.Index(out, "c.b = 2")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("String output wrong:\n%s", out)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio(3,4) != 0.75")
	}
}

func TestMergeCommutesOnValues(t *testing.T) {
	// Property: merging two sets yields the same totals regardless of order.
	f := func(xs, ys []uint8) bool {
		a, b := NewSet("a"), NewSet("b")
		for i, x := range xs {
			a.Counter(string(rune('a' + i%5))).Add(uint64(x))
		}
		for i, y := range ys {
			b.Counter(string(rune('a' + i%5))).Add(uint64(y))
		}
		m1, m2 := NewSet("m"), NewSet("m")
		m1.Merge(a)
		m1.Merge(b)
		m2.Merge(b)
		m2.Merge(a)
		for _, n := range m1.Names() {
			if m1.Get(n) != m2.Get(n) {
				return false
			}
		}
		return len(m1.Names()) == len(m2.Names())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProducers hammers a shared Set from many goroutines:
// concurrent Counter interning, atomic bumps through shared handles,
// and Merge/Snapshot sampling while producers are still running. Run
// under -race this is the harness's concurrency contract for Set.
func TestConcurrentProducers(t *testing.T) {
	const (
		producers = 8
		perWorker = 10_000
	)
	s := NewSet("shared")
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Half the goroutines share one hot counter, half intern
			// their own lazily — both paths must be race-free.
			hot := s.Counter("hot")
			own := s.Counter(fmt.Sprintf("own%d", p))
			for i := 0; i < perWorker; i++ {
				hot.Inc()
				own.Add(2)
			}
		}(p)
	}
	// Sample snapshots concurrently with the producers; values may be
	// partial but must never race or exceed the final totals.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := s.Snapshot()
			if snap["hot"] > producers*perWorker {
				t.Errorf("snapshot overshot: hot=%d", snap["hot"])
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := s.Get("hot"); got != producers*perWorker {
		t.Fatalf("hot = %d, want %d", got, producers*perWorker)
	}
	for p := 0; p < producers; p++ {
		if got := s.Get(fmt.Sprintf("own%d", p)); got != 2*perWorker {
			t.Fatalf("own%d = %d, want %d", p, got, 2*perWorker)
		}
	}
}

// TestConcurrentMerge merges many per-worker Sets into one aggregate
// from separate goroutines (the parallel harness's reduction step) and
// checks the totals are exact.
func TestConcurrentMerge(t *testing.T) {
	const workers = 16
	total := NewSet("total")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := NewSet(fmt.Sprintf("w%d", w))
			local.Counter("cycles").Add(uint64(1000 + w))
			local.Counter("stores").Add(uint64(w))
			total.Merge(local)
		}(w)
	}
	wg.Wait()
	wantCycles := uint64(0)
	wantStores := uint64(0)
	for w := 0; w < workers; w++ {
		wantCycles += uint64(1000 + w)
		wantStores += uint64(w)
	}
	if got := total.Get("cycles"); got != wantCycles {
		t.Fatalf("cycles = %d, want %d", got, wantCycles)
	}
	if got := total.Get("stores"); got != wantStores {
		t.Fatalf("stores = %d, want %d", got, wantStores)
	}
}

// TestConcurrentCrossMerge merges two Sets into each other from two
// goroutines repeatedly; the sequential snapshot-then-add locking in
// Merge must not deadlock.
func TestConcurrentCrossMerge(t *testing.T) {
	a, b := NewSet("a"), NewSet("b")
	a.Counter("n").Add(1)
	b.Counter("n").Add(1)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				if i == 0 {
					a.Merge(b)
				} else {
					b.Merge(a)
				}
			}
		}(i)
	}
	wg.Wait() // reaching here is the assertion: no deadlock, no race
}

// TestSnapshotDuringMerge exercises Snapshot racing Merge on the same
// destination (the harness snapshots aggregates while cells merge in).
func TestSnapshotDuringMerge(t *testing.T) {
	dst := NewSet("dst")
	src := NewSet("src")
	for i := 0; i < 32; i++ {
		src.Counter(fmt.Sprintf("c%02d", i)).Add(1)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			dst.Merge(src)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = dst.Snapshot()
			_ = dst.String()
		}
	}()
	wg.Wait()
	if got := dst.Get("c00"); got != 100 {
		t.Fatalf("c00 = %d, want 100", got)
	}
}

// TestSetRegistersInPlace: once a Set of the same prefix has registered
// a machine's worth of counters and histograms, a new Set registers them
// into one slab of each, sized for them, and allocates nothing more.
func TestSetRegistersInPlace(t *testing.T) {
	cs, hs := make([]string, 50), make([]string, 8)
	for i := range cs {
		cs[i] = fmt.Sprintf("inplace_c%d", i)
	}
	for i := range hs {
		hs[i] = fmt.Sprintf("inplace_h%d", i)
	}
	var s *Set
	register := func() {
		s = NewSet("inplace")
		for _, n := range cs {
			s.Counter(n)
		}
		for _, n := range hs {
			s.Histogram(n)
		}
	}
	register() // the prefix's first Set sizes the slabs of the next ones
	build := testing.AllocsPerRun(100, func() { s = NewSet("inplace") })
	all := testing.AllocsPerRun(100, register)
	if all != build+2 {
		t.Errorf("registering a machine's counters and histograms allocates %.0f times beyond NewSet's %.0f, want 2 (one slab each)", all-build, build)
	}
	if len(s.counters.more) != 0 || len(s.hists.more) != 0 || s.counters.n != 50 || s.hists.n != 8 {
		t.Errorf("registration spilled past the first slabs: %d and %d more", len(s.counters.more), len(s.hists.more))
	}
}

// TestSetsShareSchemaConcurrently: goroutines register overlapping names
// into their own Sets, each in its own order, while others intern new
// names into the shared schema and merge into one total. Every Set
// keeps its own registration order and values, and Merge and Get by name
// agree with per-name sums kept in plain maps.
func TestSetsShareSchemaConcurrently(t *testing.T) {
	const (
		workers = 16
		shared  = 40
	)
	total := NewSet("schema_total")
	sets := make([]*Set, workers)
	orders := make([][]string, workers)
	want := make([]map[string]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var order []string
			for _, i := range rng.Perm(shared) {
				order = append(order, fmt.Sprintf("schema_c%d", i))
			}
			// Every third worker also registers names no other Set has.
			for i := 0; w%3 == 0 && i < 5; i++ {
				order = append(order, fmt.Sprintf("schema_w%d_%d", w, i))
			}
			s := NewSet(fmt.Sprintf("schema_p%d", w%3))
			vals := map[string]uint64{}
			for k, n := range order {
				vals[n] = uint64(w*1000 + k + 1)
				s.Counter(n).Add(vals[n])
				s.Histogram("schema_h" + n[len(n)-1:]).Observe(uint64(k))
			}
			total.Merge(s)
			sets[w], orders[w], want[w] = s, order, vals
		}(w)
	}
	wg.Wait()
	sums := map[string]uint64{}
	for w, s := range sets {
		if got := s.Names(); fmt.Sprint(got) != fmt.Sprint(orders[w]) {
			t.Errorf("worker %d: Names() = %v, want its own order %v", w, got, orders[w])
		}
		for n, v := range want[w] {
			if got := s.Get(n); got != v {
				t.Errorf("worker %d: Get(%q) = %d, want %d", w, n, got, v)
			}
			if got := s.Counter(n).Value(); got != v {
				t.Errorf("worker %d: the handle for %q reads %d, want %d", w, n, got, v)
			}
			sums[n] += v
		}
		if s.Get("schema_never") != 0 {
			t.Errorf("worker %d: an unregistered name reads nonzero", w)
		}
	}
	snap := total.Snapshot()
	if len(snap) != len(sums) {
		t.Errorf("total holds %d counters, want %d", len(snap), len(sums))
	}
	for n, v := range sums {
		if got := total.Get(n); got != v || snap[n] != v {
			t.Errorf("total %q: Get %d, Snapshot %d, want %d", n, got, snap[n], v)
		}
	}
	var samples uint64
	for _, h := range total.HistSnapshots() {
		samples += h.Count
	}
	if want := uint64(workers*shared + 6*5); samples != want {
		t.Errorf("total histograms hold %d samples, want %d", samples, want)
	}
}
