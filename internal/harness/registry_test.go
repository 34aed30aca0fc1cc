package harness

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tusim/internal/config"
	"tusim/internal/workload"
)

// TestRegistryCoversEveryFigure pins the servable inventory: all eight
// figures of Sec. VI are registered, each with a non-empty, duplicate-
// free cell list, and the numbers agree with what tusbench -list and
// GET /v1/figures report.
func TestRegistryCoversEveryFigure(t *testing.T) {
	figs := Figures()
	if len(figs) != 8 {
		t.Fatalf("Figures() = %d specs, want 8", len(figs))
	}
	for i, f := range figs {
		if f.Fig != 8+i {
			t.Errorf("Figures()[%d].Fig = %d, want %d (paper order)", i, f.Fig, 8+i)
		}
		cells := FigureCellUnion(f.Fig)
		if len(cells) == 0 {
			t.Errorf("fig%d: no cells", f.Fig)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			k := CellKey(c)
			if seen[k] {
				t.Errorf("fig%d: duplicate cell %s", f.Fig, k)
			}
			seen[k] = true
		}
	}
	if _, ok := FigureByNum(7); ok {
		t.Error("FigureByNum(7) = ok, want miss")
	}
	if _, ok := FigureByNum(9); !ok {
		t.Error("FigureByNum(9) missed")
	}
}

// TestFig9CellCount pins the acceptance-criterion number: Fig. 9 is the
// ST SB-bound matrix at 114 entries — 11 benchmarks x 5 distinct cells
// (the baseline cell coincides with the Baseline mechanism column).
func TestFig9CellCount(t *testing.T) {
	want := len(workload.SBBound()) * len(config.Mechanisms)
	if got := len(FigureCellUnion(9)); got != want {
		t.Fatalf("fig9 cells = %d, want %d", got, want)
	}
}

// TestCellKeyMatchesRunKey pins CellKey to the exact key Runner.Run
// builds, which is what lets tusd index per-cell completion events.
func TestCellKeyMatchesRunKey(t *testing.T) {
	b, ok := workload.ByName("502.gcc1")
	if !ok {
		t.Fatal("502.gcc1 missing")
	}
	c := Cell{Bench: b, Mech: config.TUS, SB: 32}
	want := fmt.Sprintf("%s/%v/%d", b.Name, config.TUS, 32)
	if got := CellKey(c); got != want {
		t.Fatalf("CellKey = %q, want %q", got, want)
	}
}

// TestCellKeyBytesPinned pins CellKey's bytes for every registry bench
// and mechanism, an unnamed mechanism included, at the SB sizes the
// figures use and the ring's limits: it is the singleflight, quarantine
// and journal key, so a changed byte orphans every recorded cell.
func TestCellKeyBytesPinned(t *testing.T) {
	mechs := append(slices.Clone(config.Mechanisms), config.Mechanism(9))
	for _, b := range workload.All() {
		for _, m := range mechs {
			for _, sb := range []int{1, 32, 114, config.MaxStoreRing} {
				c := Cell{Bench: b, Mech: m, SB: sb}
				if got, want := CellKey(c), fmt.Sprintf("%s/%v/%d", b.Name, m, sb); got != want {
					t.Errorf("CellKey = %q, want %q", got, want)
				}
			}
		}
	}
}

// TestListReport checks the -list / GET /v1/figures payload is
// assembled from the same registry tables.
func TestListReport(t *testing.T) {
	rep := List()
	if rep.HarnessVersion != Version {
		t.Errorf("HarnessVersion = %q, want %q", rep.HarnessVersion, Version)
	}
	if len(rep.Figures) != len(Figures()) {
		t.Errorf("Figures = %d rows, want %d", len(rep.Figures), len(Figures()))
	}
	for _, f := range rep.Figures {
		if f.Cells != len(FigureCellUnion(f.Fig)) {
			t.Errorf("fig%d: listed cells %d != registry %d", f.Fig, f.Cells, len(FigureCellUnion(f.Fig)))
		}
		if f.Title == "" || f.Name == "" {
			t.Errorf("fig%d: empty name/title", f.Fig)
		}
	}
	if len(rep.Benches) != len(workload.All()) {
		t.Errorf("Benches = %d rows, want %d", len(rep.Benches), len(workload.All()))
	}
}

// TestRenderFigureUnknown pins the error path (the server surfaces it
// as a 400).
func TestRenderFigureUnknown(t *testing.T) {
	r := NewQuickRunner()
	err := RenderFigure(r, 99, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Fatalf("RenderFigure(99) err = %v, want unknown-figure error", err)
	}
}

// TestFigureCellUnion pins the expected exactly-once totals tusload
// gates on: figures sharing a matrix (9 and 11 are both the SB-bound
// set at 114) collapse to one set, disjoint SB sizes add, and unknown
// figures contribute nothing.
func TestFigureCellUnion(t *testing.T) {
	n9 := len(FigureCellUnion(9))
	if got := len(FigureCellUnion(9)); got != n9 {
		t.Errorf("union(9) = %d, want %d", got, n9)
	}
	// Fig 11 runs the identical matrix: the union must not double count.
	if got := len(FigureCellUnion(9, 11)); got != n9 {
		t.Errorf("union(9,11) = %d, want %d (same matrix)", got, n9)
	}
	// Fig 15 is the same benches at SB 32: fully disjoint cells.
	if got := len(FigureCellUnion(9, 15)); got != 2*n9 {
		t.Errorf("union(9,15) = %d, want %d", got, 2*n9)
	}
	if got := len(FigureCellUnion(9, 99)); got != n9 {
		t.Errorf("union(9,99) = %d, want %d (unknown fig ignored)", got, n9)
	}
	// No duplicates survive, and every member resolves back to a figure
	// cell.
	union := FigureCellUnion(9, 15, 11)
	seen := map[string]bool{}
	for _, c := range union {
		k := CellKey(c)
		if seen[k] {
			t.Errorf("duplicate cell %s in union", k)
		}
		seen[k] = true
	}
	if len(union) != 2*n9 {
		t.Errorf("union(9,15,11) = %d, want %d", len(union), 2*n9)
	}
}

// TestStudyCellsCannotDrift holds every Study to its own declaration: a
// cold build on a fresh runner completes exactly the cells Cells() names
// — none missing (the prefetch would be incomplete and assembly would
// simulate serially) and none extra (tusd's progress totals, tusload's
// exactly-once count and a job's degraded list would all be wrong).
func TestStudyCellsCannotDrift(t *testing.T) {
	studies := map[string]Study{"hist@114": HistStudy(114)}
	for _, f := range Figures() {
		studies[f.Name] = f
	}
	for name, st := range studies {
		t.Run(name, func(t *testing.T) {
			r := NewQuickRunner()
			r.Ops = 1000
			r.ParallelOps = 150
			r.Workers = 4
			var mu sync.Mutex
			var got []string
			r.OnCellDone = func(key string, _ bool, _ time.Duration, err error) {
				if err != nil {
					t.Errorf("cell %s: %v", key, err)
				}
				mu.Lock()
				got = append(got, key)
				mu.Unlock()
			}
			if _, err := r.Build(context.Background(), st); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, c := range CellUnion(st.Cells()) {
				want = append(want, CellKey(c))
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("cells completed != cells declared\n got %v\nwant %v", got, want)
			}
		})
	}
}
