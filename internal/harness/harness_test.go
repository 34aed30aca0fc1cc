package harness

import (
	"math"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/workload"
)

func TestGeomean(t *testing.T) {
	if g, err := Geomean([]float64{4, 1}); err != nil || math.Abs(g-2) > 1e-9 {
		t.Fatalf("Geomean(4,1) = %f, %v, want 2", g, err)
	}
	if g, err := Geomean([]float64{2, 2, 2}); err != nil || math.Abs(g-2) > 1e-9 {
		t.Fatalf("Geomean(2,2,2) = %f, %v", g, err)
	}
}

// TestGeomeanRejectsBadInput pins the loud-failure contract: empty,
// NaN, infinite, and non-positive inputs are errors, never a silently
// plausible aggregate.
func TestGeomeanRejectsBadInput(t *testing.T) {
	cases := map[string][]float64{
		"empty":    nil,
		"nan":      {1.0, math.NaN(), 2.0},
		"inf":      {1.0, math.Inf(1)},
		"zero":     {1.0, 0},
		"negative": {1.0, -2.5},
	}
	for name, xs := range cases {
		if g, err := Geomean(xs); err == nil {
			t.Fatalf("Geomean(%s=%v) = %f, want error", name, xs, g)
		}
	}
}

func TestSCurveSorted(t *testing.T) {
	in := []float64{1.3, 0.9, 1.1}
	out, err := SCurve(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0.9 || out[2] != 1.3 {
		t.Fatalf("SCurve = %v", out)
	}
	if in[0] != 1.3 {
		t.Fatal("SCurve mutated its input")
	}
	if empty, err := SCurve(nil); err != nil || len(empty) != 0 {
		t.Fatalf("SCurve(nil) = %v, %v; want empty, nil", empty, err)
	}
}

// TestSCurveRejectsNaN: a NaN has no sort position, so the curve must
// fail rather than render a mis-sorted panel.
func TestSCurveRejectsNaN(t *testing.T) {
	if out, err := SCurve([]float64{1.0, math.NaN()}); err == nil {
		t.Fatalf("SCurve with NaN = %v, want error", out)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 3000
	b, _ := workload.ByName("503.bw2")
	a1, err := r.Run(b, config.Baseline, 114)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Run(b, config.Baseline, 114)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cycles != a2.Cycles || a1.Stats != a2.Stats {
		t.Fatal("memoized run returned a different result")
	}
}

func TestRunnerDeterministic(t *testing.T) {
	b, _ := workload.ByName("502.gcc1")
	mk := func() uint64 {
		r := NewQuickRunner()
		r.Ops = 4000
		res, err := r.Run(b, config.TUS, 114)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if mk() != mk() {
		t.Fatal("identical runs produced different cycle counts")
	}
}

func TestRunnerChecked(t *testing.T) {
	// The TSO checker must pass on a real workload for every mechanism.
	r := NewQuickRunner()
	r.Ops = 4000
	r.Check = true
	b, _ := workload.ByName("502.gcc2")
	for _, m := range config.Mechanisms {
		if _, err := r.Run(b, m, 114); err != nil {
			t.Fatalf("[%v] %v", m, err)
		}
	}
}

func TestFig9Structure(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 3000
	rows, err := built[Fig9Rows](r, fig9Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.SBBound()) {
		t.Fatalf("%d rows, want %d", len(rows), len(workload.SBBound()))
	}
	// Sorted by baseline stalls, descending.
	for i := 1; i < len(rows); i++ {
		if rows[i].Values[config.Baseline] > rows[i-1].Values[config.Baseline]+1e-9 {
			t.Fatal("Fig9 rows not sorted by baseline stalls")
		}
	}
	var sb strings.Builder
	rows.Print(&sb, "")
	if !strings.Contains(sb.String(), "Figure 9") {
		t.Fatal("Fig. 9 output missing header")
	}
}

func TestSpeedupStudyStructure(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 3000
	r.ParallelOps = 400
	s, err := Speedups(r, 114, 114)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.SCurves[config.TUS]) != len(workload.All()) {
		t.Fatalf("S-curve has %d points, want %d", len(s.SCurves[config.TUS]), len(workload.All()))
	}
	// The baseline's speedup over itself is exactly 1 everywhere.
	for _, x := range s.SCurves[config.Baseline] {
		if math.Abs(x-1) > 1e-12 {
			t.Fatalf("baseline self-speedup %f != 1", x)
		}
	}
	if len(s.Breakdown) != len(workload.SBBound()) {
		t.Fatalf("breakdown rows = %d", len(s.Breakdown))
	}
	var sb strings.Builder
	s.Print(&sb, "Figure 10")
	if !strings.Contains(sb.String(), "geomean") {
		t.Fatal("Print output missing geomean")
	}
}

func TestEDPStudyStructure(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 3000
	benchs := workload.SBBound()[:3]
	s, err := EDP(r, benchs, 114, 114)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for _, row := range s.Rows {
		if math.Abs(row.Values[config.Baseline]-1) > 1e-12 {
			t.Fatalf("baseline EDP not normalized: %f", row.Values[config.Baseline])
		}
		for _, m := range config.Mechanisms {
			if row.Values[m] <= 0 {
				t.Fatalf("non-positive EDP for %v", m)
			}
		}
	}
}

func TestFig8Structure(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 3000
	r.ParallelOps = 400
	rows, err := built[Fig8Rows](r, fig8Spec{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 suites x 3 SB sizes.
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, row := range rows {
		for _, m := range config.Mechanisms {
			if row.Speedup[m] <= 0 {
				t.Fatalf("non-positive speedup for %v", m)
			}
		}
	}
}

func TestCAMTablePrint(t *testing.T) {
	var sb strings.Builder
	PrintCAMTable(&sb)
	out := sb.String()
	for _, want := range []string{"2.00x", "21%", "13.0x", "10.0x", "5.0x", "272 bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CAM table missing %q:\n%s", want, out)
		}
	}
}
