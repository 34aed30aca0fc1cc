package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/workload"
)

// SBSizes are the store buffer sizes of the scalability study (Fig. 8).
var SBSizes = []int{32, 64, 114}

// Study is one regenerable product of the evaluation — a figure, the
// histogram report, a tusd cell matrix — as the two things every consumer
// needs: which cells it reads and how to assemble them. The registry
// table, RenderFigure, BuildJSON and tusd's job plans are all loops or
// one-liners over Study values.
type Study interface {
	// Cells is the raw simulation matrix in assembly order; a cell may
	// appear more than once.
	Cells() []Cell
	// Assemble reads the cells back through Run, in the same
	// deterministic order at any worker count, and builds the product.
	// It claims no cell outside Cells(), so after Build's prefetch every
	// read is a memoized hit.
	Assemble(r *Runner) (Product, error)
}

// Product is an assembled Study. Its value is also its JSON form: the
// product types carry the wire names of `tusbench -json` as json tags.
type Product interface {
	// Print renders the text form. figure labels the panels that carry a
	// paper figure number ("Figure 10"); the rest ignore it.
	Print(w io.Writer, figure string)
}

// Build is the only place a study's cells are claimed: prefetch the
// matrix through the worker pool under ctx, then assemble serially from
// the memoized cells. A canceled ctx returns ctx.Err() within one
// cell's duration and assembles nothing.
func (r *Runner) Build(ctx context.Context, st Study) (Product, error) {
	if err := r.Prefetch(ctx, st.Cells()); err != nil {
		return nil, err
	}
	return st.Assemble(r)
}

// built runs st to completion and returns its concrete product; the
// exported one-study entry points below are this one-liner.
func built[P Product](r *Runner, st Study) (P, error) {
	p, err := r.Build(context.Background(), st)
	if err != nil {
		var none P
		return none, err
	}
	return p.(P), nil
}

// fullMatrix enumerates benchs × mechanisms at mechSB plus the baseline
// at baseSB — the cell set shared by the stall, speedup, EDP and
// histogram studies.
func fullMatrix(benchs []workload.Benchmark, baseSB, mechSB int) []Cell {
	var cells []Cell
	for _, b := range benchs {
		cells = append(cells, Cell{b, config.Baseline, baseSB})
		for _, m := range config.Mechanisms {
			cells = append(cells, Cell{b, m, mechSB})
		}
	}
	return cells
}

// BenchRow is one benchmark's value per mechanism: the SB stall
// percentage (Fig. 9), a speedup (the Figs. 10/13 breakdown, the
// Figs. 12/14 left panels) or an EDP normalized to the baseline. The
// wire writes every kind under one member name.
type BenchRow struct {
	Bench  string                       `json:"bench"`
	Values map[config.Mechanism]float64 `json:"sb_stall_pct"`
}

// mechTable is the mechanism-column table every per-benchmark figure
// shares: a header line, one line per row, then a foot row (geomean or
// average). label/head/cell are the first-column, column-header and
// value formats; val, when set, maps a stored value to the printed one.
type mechTable struct {
	label, head, cell string
	val               func(float64) float64
}

var (
	speedupTable = mechTable{"  %-16s", " %8s", " %+7.1f%%", pct}
	edpTable     = mechTable{"  %-16s", " %8s", " %8.3f", nil}
	stallTable   = mechTable{"%-16s", " %7s", " %6.1f%%", nil}
)

func (t mechTable) print(w io.Writer, rows []BenchRow, foot BenchRow) {
	line := func(row BenchRow) {
		fmt.Fprintf(w, t.label, row.Bench)
		for _, m := range config.Mechanisms {
			v := row.Values[m]
			if t.val != nil {
				v = t.val(v)
			}
			fmt.Fprintf(w, t.cell, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, t.label, "benchmark")
	for _, m := range config.Mechanisms {
		fmt.Fprintf(w, t.head, m)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		line(row)
	}
	line(foot)
}

// pct turns a speedup ratio into the signed percentage the tables print.
func pct(x float64) float64 { return 100 * (x - 1) }

// speedupsOver returns mechanism m's speedup at mechSB over the baseline
// at baseSB for each benchmark in order. A benchmark with either cell
// quarantined is skipped, so the aggregate built from the result
// degrades to the survivors.
func (r *Runner) speedupsOver(benchs []workload.Benchmark, m config.Mechanism, baseSB, mechSB int) ([]float64, error) {
	var sp []float64
	for _, b := range benchs {
		base, bok, err := r.runCell(b, config.Baseline, baseSB)
		if err != nil {
			return nil, err
		}
		res, rok, err := r.runCell(b, m, mechSB)
		if err != nil {
			return nil, err
		}
		if bok && rok {
			sp = append(sp, Speedup(res, base))
		}
	}
	return sp, nil
}

// Fig8Row is one (suite, SB size) series of geomean speedups relative
// to the 114-entry-SB baseline.
type Fig8Row struct {
	Suite   string                       `json:"suite"`
	SB      int                          `json:"sb_entries"`
	Speedup map[config.Mechanism]float64 `json:"speedup_vs_base114"`
}

// Fig8Rows is the assembled scalability study.
type Fig8Rows []Fig8Row

// fig8Suite is one suite series of the scalability study.
type fig8Suite struct {
	name   string
	benchs []workload.Benchmark
}

// fig8Suites enumerates the scalability study's suite series.
func fig8Suites() []fig8Suite {
	spec := make([]workload.Benchmark, 0, 8)
	tf := make([]workload.Benchmark, 0, 4)
	for _, b := range workload.SBBound() {
		if b.Suite == workload.TF {
			tf = append(tf, b)
		} else {
			spec = append(spec, b)
		}
	}
	return []fig8Suite{
		{"SPEC-ST(SB-bound)", spec},
		{"TF", tf},
		{"Parsec", workload.BySuite(workload.Parsec)},
	}
}

// fig8Spec is the scalability study: geomean speedup over the 114-entry
// baseline for every mechanism, SB size, and suite.
type fig8Spec struct{}

func (fig8Spec) Cells() []Cell {
	var cells []Cell
	for _, s := range fig8Suites() {
		for _, b := range s.benchs {
			cells = append(cells, Cell{b, config.Baseline, 114})
			for _, sb := range SBSizes {
				for _, m := range config.Mechanisms {
					cells = append(cells, Cell{b, m, sb})
				}
			}
		}
	}
	return cells
}

func (fig8Spec) Assemble(r *Runner) (Product, error) {
	var rows Fig8Rows
	for _, s := range fig8Suites() {
		for _, sb := range SBSizes {
			row := Fig8Row{Suite: s.name, SB: sb, Speedup: map[config.Mechanism]float64{}}
			for _, m := range config.Mechanisms {
				sp, err := r.speedupsOver(s.benchs, m, 114, sb)
				if err != nil {
					return nil, err
				}
				gm, err := Geomean(sp)
				if err != nil {
					return nil, fmt.Errorf("fig8 %s/SB=%d/%v: %w", s.name, sb, m, err)
				}
				row.Speedup[m] = gm
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Print renders the Fig. 8 table.
func (rows Fig8Rows) Print(w io.Writer, _ string) {
	fmt.Fprintln(w, "Figure 8: geomean speedup vs 114-entry-SB baseline, by SB size")
	fmt.Fprintf(w, "%-20s %4s", "suite", "SB")
	for _, m := range config.Mechanisms {
		fmt.Fprintf(w, " %8s", m)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-20s %4d", row.Suite, row.SB)
		for _, m := range config.Mechanisms {
			fmt.Fprintf(w, " %+7.1f%%", pct(row.Speedup[m]))
		}
		fmt.Fprintln(w)
	}
}

// Fig9Rows is the assembled stall study: each row's values are the
// SB-induced stall fractions, in % of cycles.
type Fig9Rows []BenchRow

// fig9Spec is the SB-induced dispatch stall breakdown (114 SB,
// single-threaded SB-bound set, sorted by baseline stalls).
type fig9Spec struct{}

func (fig9Spec) Cells() []Cell { return fullMatrix(workload.SBBound(), 114, 114) }

func (fig9Spec) Assemble(r *Runner) (Product, error) {
	benchs, err := r.SortByBaselineStalls(workload.SBBound(), 114)
	if err != nil {
		return nil, err
	}
	var rows Fig9Rows
	for _, b := range benchs {
		row := BenchRow{Bench: b.Name, Values: map[config.Mechanism]float64{}}
		good := true
		for _, m := range config.Mechanisms {
			res, ok, err := r.runCell(b, m, 114)
			if err != nil {
				return nil, err
			}
			if !ok {
				good = false
				continue
			}
			row.Values[m] = res.SBStallPct()
		}
		// A row with any quarantined cell is dropped whole: a partial
		// stall comparison would be misleading.
		if good {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("fig9: every benchmark quarantined")
	}
	return rows, nil
}

// Print renders the Fig. 9 table.
func (rows Fig9Rows) Print(w io.Writer, _ string) {
	fmt.Fprintln(w, "Figure 9: SB-induced stalls (% of cycles), 114-entry SB, ST SB-bound (lower is better)")
	avg := map[config.Mechanism]float64{}
	for _, row := range rows {
		for _, m := range config.Mechanisms {
			avg[m] += row.Values[m]
		}
	}
	for m := range avg {
		avg[m] /= float64(len(rows))
	}
	stallTable.print(w, rows, BenchRow{"average", avg})
}

// SpeedupStudy holds the data behind Figs. 10/13: an S-curve over every
// application plus the per-benchmark SB-bound breakdown, normalized to
// a baseline with the given SB size.
type SpeedupStudy struct {
	BaselineSB int `json:"baseline_sb"`
	MechSB     int `json:"mech_sb"`
	// SCurves: per mechanism, sorted speedups over all applications.
	SCurves map[config.Mechanism][]float64 `json:"s_curves"`
	// Breakdown: speedups per SB-bound ST benchmark (sorted by stalls).
	Breakdown []BenchRow `json:"sb_bound_breakdown"`
	// Geomean over the SB-bound set.
	Geomean map[config.Mechanism]float64 `json:"geomean"`
}

// speedupSpec is Fig. 10 (114/114) or Fig. 13 (32/32): every mechanism
// runs with mechSB entries and is normalized to the baseline with baseSB
// entries.
type speedupSpec struct{ baseSB, mechSB int }

func (s speedupSpec) Cells() []Cell { return fullMatrix(workload.All(), s.baseSB, s.mechSB) }

func (s speedupSpec) Assemble(r *Runner) (Product, error) {
	study := &SpeedupStudy{BaselineSB: s.baseSB, MechSB: s.mechSB, SCurves: map[config.Mechanism][]float64{}}
	for _, m := range config.Mechanisms {
		sp, err := r.speedupsOver(workload.All(), m, s.baseSB, s.mechSB)
		if err != nil {
			return nil, err
		}
		curve, err := SCurve(sp)
		if err != nil {
			return nil, fmt.Errorf("speedups %d/%d %v: %w", s.baseSB, s.mechSB, m, err)
		}
		study.SCurves[m] = curve
	}
	benchs, err := r.SortByBaselineStalls(workload.SBBound(), s.baseSB)
	if err != nil {
		return nil, err
	}
	bd, err := r.normalized(benchs, s.baseSB, s.mechSB, Speedup)
	if err != nil {
		return nil, err
	}
	study.Breakdown, study.Geomean = bd.Rows, bd.Geomean
	return study, nil
}

// Speedups regenerates Fig. 10 (baselineSB=114) or Fig. 13
// (baselineSB=32).
func Speedups(r *Runner, baselineSB, mechSB int) (*SpeedupStudy, error) {
	return built[*SpeedupStudy](r, speedupSpec{baselineSB, mechSB})
}

// Print renders the study in the paper's two-panel layout.
func (s *SpeedupStudy) Print(w io.Writer, figure string) {
	fmt.Fprintf(w, "%s: speedup normalized to %d-entry-SB baseline (mechanisms at SB=%d)\n",
		figure, s.BaselineSB, s.MechSB)
	fmt.Fprintln(w, "left panel - S-curve over all applications (sorted speedups):")
	for _, m := range config.Mechanisms {
		var sb strings.Builder
		for _, x := range s.SCurves[m] {
			fmt.Fprintf(&sb, " %+5.1f", pct(x))
		}
		fmt.Fprintf(w, "  %-5s%s\n", m, sb.String())
	}
	fmt.Fprintln(w, "right panel - ST SB-bound breakdown:")
	speedupTable.print(w, s.Breakdown, BenchRow{"geomean", s.Geomean})
}

// EDPStudy holds Figs. 11/15 (ST SB-bound) or one panel of Figs. 12/14
// (Parsec): one row per benchmark of a metric normalized to the
// baseline, plus its geomean.
type EDPStudy struct {
	BaselineSB int                          `json:"baseline_sb"`
	MechSB     int                          `json:"mech_sb"`
	Rows       []BenchRow                   `json:"rows"`
	Geomean    map[config.Mechanism]float64 `json:"geomean"`
}

// normalized is the loop the breakdown, EDP and Parsec panels share: one
// row per benchmark of metric(mechanism cell at mechSB, baseline cell at
// baseSB), and the per-mechanism geomean over the rows. A row with any
// quarantined cell is dropped whole: a partial comparison would mislead.
func (r *Runner) normalized(benchs []workload.Benchmark, baseSB, mechSB int,
	metric func(res, base Result) float64) (*EDPStudy, error) {
	study := &EDPStudy{BaselineSB: baseSB, MechSB: mechSB, Geomean: map[config.Mechanism]float64{}}
	for _, b := range benchs {
		base, good, err := r.runCell(b, config.Baseline, baseSB)
		if err != nil {
			return nil, err
		}
		row := BenchRow{Bench: b.Name, Values: map[config.Mechanism]float64{}}
		for _, m := range config.Mechanisms {
			res, ok, err := r.runCell(b, m, mechSB)
			if err != nil {
				return nil, err
			}
			good = good && ok
			if good {
				row.Values[m] = metric(res, base)
			}
		}
		if good {
			study.Rows = append(study.Rows, row)
		}
	}
	if len(study.Rows) == 0 {
		return nil, fmt.Errorf("SB %d/%d: every benchmark quarantined", baseSB, mechSB)
	}
	for _, m := range config.Mechanisms {
		xs := make([]float64, len(study.Rows))
		for i, row := range study.Rows {
			xs[i] = row.Values[m]
		}
		g, err := Geomean(xs)
		if err != nil {
			return nil, fmt.Errorf("SB %d/%d %v: %w", baseSB, mechSB, m, err)
		}
		study.Geomean[m] = g
	}
	return study, nil
}

// edpRatio is the EDP figures' metric: EDP normalized to the baseline.
func edpRatio(res, base Result) float64 { return res.EDP / base.EDP }

// edpSpec is an EDP figure over a benchmark set (Figs. 11/15).
type edpSpec struct {
	benchs         []workload.Benchmark
	baseSB, mechSB int
}

func (s edpSpec) Cells() []Cell { return fullMatrix(s.benchs, s.baseSB, s.mechSB) }

func (s edpSpec) Assemble(r *Runner) (Product, error) {
	study, err := r.normalized(s.benchs, s.baseSB, s.mechSB, edpRatio)
	if err != nil {
		return nil, err
	}
	return study, nil
}

// EDP regenerates an EDP figure over the given benchmark set.
func EDP(r *Runner, benchs []workload.Benchmark, baselineSB, mechSB int) (*EDPStudy, error) {
	return built[*EDPStudy](r, edpSpec{benchs, baselineSB, mechSB})
}

// Print renders the EDP table.
func (s *EDPStudy) Print(w io.Writer, figure string) {
	fmt.Fprintf(w, "%s: EDP normalized to %d-entry-SB baseline (mechanisms at SB=%d, lower is better)\n",
		figure, s.BaselineSB, s.MechSB)
	s.printRows(w, edpTable)
}

func (s *EDPStudy) printRows(w io.Writer, t mechTable) {
	t.print(w, s.Rows, BenchRow{"geomean", s.Geomean})
}

// ParsecStudy is a Fig. 12/14 panel pair: Parsec speedup and EDP.
type ParsecStudy struct {
	Speedup *EDPStudy `json:"speedup"` // reused row layout; values are speedups
	EDP     *EDPStudy `json:"edp"`
}

// parsecSpec is Fig. 12 (114/114) or Fig. 14 (32/32).
type parsecSpec struct{ baseSB, mechSB int }

func (s parsecSpec) edp() edpSpec {
	return edpSpec{workload.BySuite(workload.Parsec), s.baseSB, s.mechSB}
}

func (s parsecSpec) Cells() []Cell { return s.edp().Cells() }

func (s parsecSpec) Assemble(r *Runner) (Product, error) {
	e := s.edp()
	sp, err := r.normalized(e.benchs, s.baseSB, s.mechSB, Speedup)
	if err != nil {
		return nil, err
	}
	edp, err := e.Assemble(r)
	if err != nil {
		return nil, err
	}
	return &ParsecStudy{Speedup: sp, EDP: edp.(*EDPStudy)}, nil
}

// Parsec regenerates Fig. 12 (baselineSB=114) or Fig. 14 (32).
func Parsec(r *Runner, baselineSB, mechSB int) (*ParsecStudy, error) {
	return built[*ParsecStudy](r, parsecSpec{baselineSB, mechSB})
}

// Print renders both Parsec panels.
func (p *ParsecStudy) Print(w io.Writer, figure string) {
	fmt.Fprintf(w, "%s left: Parsec speedup vs %d-entry-SB baseline (higher is better)\n", figure, p.Speedup.BaselineSB)
	p.Speedup.printRows(w, speedupTable)
	p.EDP.Print(w, figure+" right")
}

// PrintCAMTable reports the analytic CAM model against the paper's
// published numbers (Secs. I/V: the "X2" experiment in DESIGN.md).
func PrintCAMTable(w io.Writer) {
	fmt.Fprintln(w, "CAM model vs paper claims:")
	fmt.Fprintf(w, "  SB energy/search 114 vs 32:  %.2fx   (paper: 2x)\n", energy.SBEnergyRatio(114, 32))
	fmt.Fprintf(w, "  SB area saving 114 -> 32:    %.0f%%    (paper: 21%%)\n", 100*energy.SBAreaReduction(114, 32))
	fmt.Fprintf(w, "  WOQ area vs 114-entry SB:    %.1fx smaller (paper: 13x)\n",
		energy.SBCAM.Area(114)/energy.WOQArea())
	fmt.Fprintf(w, "  WOQ energy vs 114-entry SB:  %.1fx less    (paper: 10x)\n",
		energy.SBCAM.SearchEnergy(114)/energy.WOQSearchEnergy())
	fmt.Fprintf(w, "  WOQ energy vs 32-entry SB:   %.1fx less    (paper: 5x)\n",
		energy.SBCAM.SearchEnergy(32)/energy.WOQSearchEnergy())
	fmt.Fprintf(w, "  store-to-load fwd latency:   5 cycles @114, 4 @64, 3 @32 (paper: 5 -> 3)\n")
	fmt.Fprintf(w, "  WOQ storage: 64 entries x 34 bits = %d bytes (paper: 272 bytes)\n", 64*34/8)
}
