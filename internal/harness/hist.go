package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tusim/internal/config"
	"tusim/internal/stats"
	"tusim/internal/workload"
)

// HistRow carries one cell's occupancy/latency histograms (merged over
// cores by StatsSum). Names is sorted so rows render and serialize
// deterministically regardless of which core registered a histogram
// first.
type HistRow struct {
	Bench string
	Mech  config.Mechanism
	SB    int
	Names []string
	Hists map[string]stats.HistSnapshot
}

// HistRows is the assembled histogram report.
type HistRows []HistRow

// histSpec is the histogram report: every cell of the ST SB-bound matrix
// at one SB size — SB/WOQ/TSOB/MSHR occupancy, drain latency, and TUS
// unauthorized-residency distributions. At 114 entries the matrix is
// Fig. 9's, so after a figure run everything is already memoized.
type histSpec struct{ sb int }

// HistStudy returns the histogram report at the given SB size as a
// Study (tusd's hist job builds it under the job's context).
func HistStudy(sb int) Study { return histSpec{sb} }

func (s histSpec) Cells() []Cell { return fullMatrix(workload.SBBound(), s.sb, s.sb) }

func (s histSpec) Assemble(r *Runner) (Product, error) {
	var rows HistRows
	for _, b := range workload.SBBound() {
		for _, m := range config.Mechanisms {
			res, ok, err := r.runCell("histograms", b, m, s.sb)
			if err != nil {
				return nil, err
			}
			if !ok {
				// Histogram rows are independent per cell, so a
				// quarantined cell drops only its own row.
				continue
			}
			snaps := res.Stats.HistSnapshots()
			names := make([]string, 0, len(snaps))
			for n := range snaps {
				names = append(names, n)
			}
			sort.Strings(names)
			rows = append(rows, HistRow{Bench: b.Name, Mech: m, SB: s.sb, Names: names, Hists: snaps})
		}
	}
	return rows, nil
}

// Histograms runs (or fetches) the histogram report at the given SB
// size.
func Histograms(r *Runner, sb int) ([]HistRow, error) { return built[HistRows](r, histSpec{sb}) }

// PrintHistograms renders the histogram report as text.
func PrintHistograms(w io.Writer, rows []HistRow) { HistRows(rows).Print(w, "") }

// Print renders the histogram report as text.
func (rows HistRows) Print(w io.Writer, _ string) {
	fmt.Fprintln(w, "Occupancy / latency histograms (cycles or entries; power-of-two buckets)")
	for _, row := range rows {
		fmt.Fprintf(w, "%s/%v/SB=%d\n", row.Bench, row.Mech, row.SB)
		for _, n := range row.Names {
			fmt.Fprintf(w, "  %-22s %s\n", n, row.Hists[n])
		}
	}
}

// HistJSON is the machine-readable form of one histogram: headline
// moments plus quantile upper bounds (full buckets stay in the disk
// cache; the report carries the summary).
type HistJSON struct {
	Bench string           `json:"bench"`
	Mech  config.Mechanism `json:"mech"`
	SB    int              `json:"sb"`
	Name  string           `json:"name"`
	Count uint64           `json:"count"`
	Mean  float64          `json:"mean"`
	Max   uint64           `json:"max"`
	P50   uint64           `json:"p50_upper"`
	P90   uint64           `json:"p90_upper"`
	P99   uint64           `json:"p99_upper"`
}

// MarshalJSON flattens the report to one HistJSON per (cell, histogram).
func (rows HistRows) MarshalJSON() ([]byte, error) {
	var out []HistJSON
	for _, row := range rows {
		for _, n := range row.Names {
			s := row.Hists[n]
			out = append(out, HistJSON{
				Bench: row.Bench,
				Mech:  row.Mech,
				SB:    row.SB,
				Name:  n,
				Count: s.Count,
				Mean:  stats.Ratio(s.Sum, s.Count),
				Max:   s.Max,
				P50:   s.Quantile(0.50),
				P90:   s.Quantile(0.90),
				P99:   s.Quantile(0.99),
			})
		}
	}
	return json.Marshal(out)
}
