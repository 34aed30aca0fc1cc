package main

import "testing"

func TestNearestRankIsASample(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := nearestRank(asc, tc.p); got != tc.want {
			t.Errorf("nearestRank(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must sort
	}
	// p99 of 1000: rank 990, 10 beyond it. Exactly enough.
	got, err := percentile(xs, 99)
	if err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	// One sample fewer leaves 9 beyond rank 990 (ceil(0.99*999) = 990).
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("p99 of 999 samples accepted with 9 samples beyond it")
	}
	// p99.9 needs ten thousand.
	if _, err := percentile(xs, 99.9); err == nil {
		t.Error("p99.9 of 1000 samples accepted")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing accepted")
	}
	for _, p := range []float64{0, -1, 100.5} {
		if _, err := percentile(xs, p); err == nil {
			t.Errorf("percentile %v accepted", p)
		}
	}
}

// The expected values are statistics.quantiles(xs, n=4) and
// statistics.median(xs) from Python 3, which the acceptance check uses.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 30, 45},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 2.5, 9, 1, 4, 4.5, 7.25}, 2.5, 4, 7.25},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || s.Q1 != tc.q1 || s.Median != tc.med || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.xs, s, tc.q1, tc.med, tc.q3)
		}
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.N != 1 {
		t.Errorf("summarize of one sample = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize of nothing = %+v", s)
	}
}

func TestCellwiseVotesOutADisturbedStretch(t *testing.T) {
	// Three repetitions of four cells that take 1, 2, 3 and 4 s. The
	// first repetition is disturbed during its last two cells, the third
	// during its first: every whole repetition but one is slow, yet each
	// cell has two clean readings.
	reps := [][]float64{
		{1, 2, 3.9, 5.2},
		{1, 2, 3, 4},
		{1.5, 2, 3, 4},
	}
	s := cellwise(reps)
	if s.Median != 10 || s.N != 3 {
		t.Errorf("cellwise median = %v (n=%d), want the undisturbed 10 (n=3)", s.Median, s.N)
	}
	whole := summarize([]float64{12.1, 10, 10.5})
	if whole.Median != 10.5 {
		t.Errorf("median of whole repetitions = %v, want 10.5", whole.Median)
	}
	two := cellwise(reps[:2])
	if want := (12.1 + 10) / 2; two.Median < want-1e-9 || two.Median > want+1e-9 {
		t.Errorf("cellwise of two repetitions = %v, want their mean %v", two.Median, want)
	}
	if s := cellwise(nil); s != (summary{}) {
		t.Errorf("cellwise of nothing = %+v", s)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"st_burst", "system.run_ns_per_uop", "a", "9lives", "A-b_c.d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a%", "µops", string(long)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}
