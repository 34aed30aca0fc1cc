package harness

import (
	"context"
	"encoding/json"
	"strconv"
)

// JSONReport is the machine-readable form of the full evaluation,
// written by `tusbench -json`: the scale, one section per registry row
// under its JSON key (paper order), the histogram summary of the ST
// SB-bound matrix at 114 SB (the Fig. 9 cells, so no extra runs), and —
// only when a quarantined cell had to be skipped — the degraded list. A
// report with that last section is an explicit partial result, never a
// silent one.
type JSONReport struct {
	// Scale records the trace lengths the numbers were produced at.
	Scale struct {
		Ops         int   `json:"ops"`
		ParallelOps int   `json:"parallel_ops"`
		Seed        int64 `json:"seed"`
	}
	Sections []JSONSection
	Degraded []DegradedCell
}

// JSONSection is one study's product under its report key.
type JSONSection struct {
	Key   string
	Value any
}

// MarshalJSON writes the sections as object members in report order
// (encoding/json would sort a map's keys and put fig10 before fig8).
func (rep JSONReport) MarshalJSON() ([]byte, error) {
	members := append([]JSONSection{{"scale", rep.Scale}}, rep.Sections...)
	if len(rep.Degraded) > 0 {
		members = append(members, JSONSection{"degraded", rep.Degraded})
	}
	buf := []byte{'{'}
	for i, m := range members {
		if i > 0 {
			buf = append(buf, ',')
		}
		val, err := json.Marshal(m.Value)
		if err != nil {
			return nil, err
		}
		buf = append(strconv.AppendQuote(buf, m.Key), ':')
		buf = append(buf, val...)
	}
	return append(buf, '}'), nil
}

// BuildJSON runs the full evaluation — every registry row, then the
// histogram report — and assembles the report.
func BuildJSON(r *Runner) (*JSONReport, error) {
	rep := &JSONReport{}
	rep.Scale.Ops = r.Ops
	rep.Scale.ParallelOps = r.ParallelOps
	rep.Scale.Seed = r.Seed
	hists := FigureSpec{Name: "histograms", jsonKey: "histograms", study: histSpec{114}}
	for _, f := range append(Figures(), hists) {
		p, err := r.Build(context.Background(), f.study)
		if err != nil {
			return nil, err
		}
		rep.Sections = append(rep.Sections, JSONSection{f.jsonKey, p})
	}
	rep.Degraded = r.DegradedCells()
	return rep, nil
}
