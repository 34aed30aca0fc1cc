package harness

import (
	"context"
	"encoding/json"
	"strconv"

	"tusim/internal/config"
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

// JSONSection is one study's JSON form under its report key.
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

// Fig8JSON is one scalability row.
type Fig8JSON struct {
	Suite    string             `json:"suite"`
	SB       int                `json:"sb_entries"`
	Speedups map[string]float64 `json:"speedup_vs_base114"`
}

// Fig9JSON is one stall row.
type Fig9JSON struct {
	Bench  string             `json:"bench"`
	Stalls map[string]float64 `json:"sb_stall_pct"`
}

// SpeedupsJSON mirrors SpeedupStudy.
type SpeedupsJSON struct {
	BaselineSB int                  `json:"baseline_sb"`
	MechSB     int                  `json:"mech_sb"`
	SCurves    map[string][]float64 `json:"s_curves"`
	Breakdown  []Fig9JSON           `json:"sb_bound_breakdown"` // values are speedups
	Geomean    map[string]float64   `json:"geomean"`
}

// EDPJSON mirrors EDPStudy.
type EDPJSON struct {
	BaselineSB int                `json:"baseline_sb"`
	MechSB     int                `json:"mech_sb"`
	Rows       []Fig9JSON         `json:"rows"` // values are normalized EDP
	Geomean    map[string]float64 `json:"geomean"`
}

// ParsecJSON mirrors ParsecStudy.
type ParsecJSON struct {
	Speedup *EDPJSON `json:"speedup"`
	EDP     *EDPJSON `json:"edp"`
}

func mechMap(m map[config.Mechanism]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k.String()] = v
	}
	return out
}

// JSON mirrors the scalability rows.
func (rows Fig8Rows) JSON() any {
	var out []Fig8JSON
	for _, row := range rows {
		out = append(out, Fig8JSON{Suite: row.Suite, SB: row.SB, Speedups: mechMap(row.Speedup)})
	}
	return out
}

// JSON mirrors the stall rows.
func (rows Fig9Rows) JSON() any {
	var out []Fig9JSON
	for _, row := range rows {
		out = append(out, Fig9JSON{Bench: row.Bench, Stalls: mechMap(row.Stalls)})
	}
	return out
}

// JSON mirrors SpeedupStudy.
func (s *SpeedupStudy) JSON() any {
	out := &SpeedupsJSON{
		BaselineSB: s.BaselineSB,
		MechSB:     s.MechSB,
		SCurves:    map[string][]float64{},
		Geomean:    mechMap(s.Geomean),
	}
	for m, curve := range s.SCurves {
		out.SCurves[m.String()] = curve
	}
	for _, row := range s.Breakdown {
		out.Breakdown = append(out.Breakdown, Fig9JSON{Bench: row.Bench, Stalls: mechMap(row.Speedups)})
	}
	return out
}

// JSON mirrors EDPStudy.
func (s *EDPStudy) JSON() any {
	out := &EDPJSON{BaselineSB: s.BaselineSB, MechSB: s.MechSB, Geomean: mechMap(s.Geomean)}
	for _, row := range s.Rows {
		out.Rows = append(out.Rows, Fig9JSON{Bench: row.Bench, Stalls: mechMap(row.EDP)})
	}
	return out
}

// JSON mirrors ParsecStudy.
func (p *ParsecStudy) JSON() any {
	return &ParsecJSON{Speedup: p.Speedup.JSON().(*EDPJSON), EDP: p.EDP.JSON().(*EDPJSON)}
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
		rep.Sections = append(rep.Sections, JSONSection{f.jsonKey, p.JSON()})
	}
	rep.Degraded = r.DegradedCells()
	return rep, nil
}
