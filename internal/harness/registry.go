package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"tusim/internal/workload"
)

// This file is the single registry of everything the evaluation can
// produce: which figures exist, which benchmarks exist, and — through
// each row's Study — which simulation cells a figure reads and how it is
// assembled. `tusbench -list`, `tusbench -fig`, `tusbench -json`, tusd's
// GET /v1/figures and its job plans all read this one table, so the CLI
// and the service can never disagree about what is servable.

// FigureSpec is one row of the registry: a regenerable figure of
// Sec. VI. It is itself a Study — the row's study under its figure
// label, printed the way `tusbench -fig <n>` prints it.
type FigureSpec struct {
	// Fig is the paper's figure number (8-15).
	Fig int
	// Name is the short tag used in reports and timings ("fig9").
	Name string
	// Title is the one-line human description.
	Title string
	// jsonKey is the figure's member name in the `tusbench -json` report.
	jsonKey string
	study   Study
}

// figureSpecs lists every figure in paper order.
var figureSpecs = []FigureSpec{
	{8, "fig8", "geomean speedup vs 114-entry-SB baseline, by SB size and suite", "fig8_scalability", fig8Spec{}},
	{9, "fig9", "SB-induced dispatch stalls (% of cycles), 114-entry SB, ST SB-bound", "fig9_sb_stalls", fig9Spec{}},
	{10, "fig10", "speedup S-curve + SB-bound breakdown vs 114-entry-SB baseline", "fig10_speedups_114", speedupSpec{114, 114}},
	{11, "fig11", "normalized EDP @114 SB, ST SB-bound", "fig11_edp_114", edpSpec{workload.SBBound(), 114, 114}},
	{12, "fig12", "Parsec speedup + EDP @114 SB", "fig12_parsec_114", parsecSpec{114, 114}},
	{13, "fig13", "speedup S-curve + SB-bound breakdown vs 32-entry-SB baseline", "fig13_speedups_32", speedupSpec{32, 32}},
	{14, "fig14", "Parsec speedup + EDP @32 SB", "fig14_parsec_32", parsecSpec{32, 32}},
	{15, "fig15", "normalized EDP @32 SB, ST SB-bound", "fig15_edp_32", edpSpec{workload.SBBound(), 32, 32}},
}

// Figures returns every regenerable figure in paper order.
func Figures() []FigureSpec {
	return append([]FigureSpec(nil), figureSpecs...)
}

// FigureByNum looks a figure up by its paper number.
func FigureByNum(fig int) (FigureSpec, bool) {
	for _, f := range figureSpecs {
		if f.Fig == fig {
			return f, true
		}
	}
	return FigureSpec{}, false
}

// Cells is the figure's raw matrix.
func (f FigureSpec) Cells() []Cell { return f.study.Cells() }

// Assemble assembles the row's study under its figure label.
func (f FigureSpec) Assemble(r *Runner) (Product, error) {
	p, err := f.study.Assemble(r)
	if err != nil {
		return nil, err
	}
	return figureProduct{p, fmt.Sprintf("Figure %d", f.Fig)}, nil
}

// figureProduct prints a product in the exact byte form
// `tusbench -fig <n>` prints: the table under its figure label followed
// by one blank line. tusd serves these same bytes, which is what makes a
// network fetch diffable against the CLI.
type figureProduct struct {
	Product
	figure string
}

func (p figureProduct) Print(w io.Writer, _ string) {
	p.Product.Print(w, p.figure)
	fmt.Fprintln(w)
}

// MarshalJSON writes the figure's product; the label is text-only.
func (p figureProduct) MarshalJSON() ([]byte, error) { return json.Marshal(p.Product) }

// CellKey renders the cell's in-process identity, matching Runner.Run's
// singleflight key ("bench/mech/sb") and the journal's quarantine keys.
func CellKey(c Cell) string {
	return c.Bench.Name + "/" + c.Mech.String() + "/" + strconv.Itoa(c.SB)
}

// CellUnion returns the distinct cells of the given lists, deduped by
// CellKey in first-appearance order — exactly the cells a cold build of
// those lists simulates.
func CellUnion(lists ...[]Cell) []Cell {
	seen := map[string]bool{}
	var out []Cell
	for _, cells := range lists {
		for _, c := range cells {
			if k := CellKey(c); !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// CellKeys returns the CellKeys of CellUnion(cells), in its order.
func CellKeys(cells []Cell) []string {
	var keys []string
	for _, c := range CellUnion(cells) {
		keys = append(keys, CellKey(c))
	}
	return keys
}

// FigureCellUnion returns the distinct union of the given figures'
// cells in first-appearance order. Its length is the registry's expected exactly-once cell total
// for a cold run that regenerates exactly those figures: tusload asserts
// the daemon's cells_run counter lands on it. Unknown figure numbers
// contribute nothing.
func FigureCellUnion(figs ...int) []Cell {
	var lists [][]Cell
	for _, fig := range figs {
		if f, ok := FigureByNum(fig); ok {
			lists = append(lists, f.Cells())
		}
	}
	return CellUnion(lists...)
}

// RenderFigure regenerates figure fig through r and writes it to w in
// the byte form `tusbench -fig <n>` prints.
func RenderFigure(r *Runner, fig int, w io.Writer) error {
	f, ok := FigureByNum(fig)
	if !ok {
		return fmt.Errorf("unknown figure %d", fig)
	}
	p, err := r.Build(context.Background(), f)
	if err != nil {
		return err
	}
	p.Print(w, "")
	return nil
}

// FigureInfo is the machine-readable registry row for one figure.
type FigureInfo struct {
	Fig   int    `json:"fig"`
	Name  string `json:"name"`
	Title string `json:"title"`
	// Cells is the number of distinct simulation cells a cold
	// regeneration runs.
	Cells int `json:"cells"`
}

// BenchInfo is the machine-readable registry row for one benchmark
// proxy.
type BenchInfo struct {
	Name    string `json:"name"`
	Suite   string `json:"suite"`
	Threads int    `json:"threads"`
	SBBound bool   `json:"sb_bound"`
}

// ListReport is the full servable inventory, emitted by
// `tusbench -list` and GET /v1/figures.
type ListReport struct {
	HarnessVersion string       `json:"harness_version"`
	Figures        []FigureInfo `json:"figures"`
	Benches        []BenchInfo  `json:"benches"`
}

// List assembles the servable inventory from the registry tables.
func List() ListReport {
	rep := ListReport{HarnessVersion: Version}
	for _, f := range figureSpecs {
		rep.Figures = append(rep.Figures, FigureInfo{
			Fig:   f.Fig,
			Name:  f.Name,
			Title: f.Title,
			Cells: len(CellUnion(f.Cells())),
		})
	}
	for _, b := range workload.All() {
		rep.Benches = append(rep.Benches, BenchInfo{
			Name:    b.Name,
			Suite:   b.Suite.String(),
			Threads: b.Threads,
			SBBound: b.SBBound,
		})
	}
	return rep
}
