package stats

import (
	"fmt"
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
	if c.Name() != "loads" {
		t.Fatalf("Name = %q", c.Name())
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

// TestSetRegistersInPlace: a machine's worth of counters and histograms
// registers into the order slices NewSet sized, without regrowing them.
func TestSetRegistersInPlace(t *testing.T) {
	s := NewSet("core0")
	s.Counter("c0")
	s.Histogram("h0")
	order, hist := &s.order[0], &s.histOrder[0]
	for i := 1; i < setSizeHint; i++ {
		s.Counter(fmt.Sprintf("c%d", i))
	}
	for i := 1; i < 8; i++ {
		s.Histogram(fmt.Sprintf("h%d", i))
	}
	if &s.order[0] != order || &s.histOrder[0] != hist {
		t.Error("registering a machine's counters and histograms regrew the order slices")
	}
}
