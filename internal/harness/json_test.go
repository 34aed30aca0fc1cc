package harness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// reportJSON is `tusbench -json`: BuildJSON, then an indented encode.
func reportJSON(r *Runner) ([]byte, error) {
	rep, err := BuildJSON(r)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(rep, "", "  ")
}

func TestWriteJSON(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 2500
	r.ParallelOps = 300
	out, err := reportJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	// The wire schema, decoded into local types independent of the
	// product types that encode it: member names here are the contract
	// with report consumers.
	type benchRow struct {
		Bench  string             `json:"bench"`
		Values map[string]float64 `json:"sb_stall_pct"`
	}
	type edpPanel struct {
		BaselineSB int                `json:"baseline_sb"`
		Rows       []benchRow         `json:"rows"`
		Geomean    map[string]float64 `json:"geomean"`
	}
	var rep struct {
		Scale struct {
			Ops int `json:"ops"`
		} `json:"scale"`
		Fig8 []struct {
			Suite    string             `json:"suite"`
			SB       int                `json:"sb_entries"`
			Speedups map[string]float64 `json:"speedup_vs_base114"`
		} `json:"fig8_scalability"`
		Fig9  []benchRow `json:"fig9_sb_stalls"`
		Fig10 *struct {
			MechSB    int                  `json:"mech_sb"`
			SCurves   map[string][]float64 `json:"s_curves"`
			Breakdown []benchRow           `json:"sb_bound_breakdown"`
			Geomean   map[string]float64   `json:"geomean"`
		} `json:"fig10_speedups_114"`
		Fig12 *struct {
			Speedup *edpPanel `json:"speedup"`
			EDP     *edpPanel `json:"edp"`
		} `json:"fig12_parsec_114"`
		Hists []struct {
			Mech  string `json:"mech"`
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Fig8) != 9 || len(rep.Fig9) == 0 {
		t.Fatalf("fig8=%d fig9=%d rows", len(rep.Fig8), len(rep.Fig9))
	}
	if rep.Fig8[0].SB != 32 || len(rep.Fig8[0].Speedups) != 5 || len(rep.Fig9[0].Values) != 5 {
		t.Fatalf("fig8[0] = %+v, fig9[0] = %+v", rep.Fig8[0], rep.Fig9[0])
	}
	if rep.Fig10 == nil || rep.Fig10.Geomean["TUS"] <= 0 || rep.Fig10.MechSB != 114 ||
		len(rep.Fig10.SCurves["base"]) == 0 || len(rep.Fig10.Breakdown) == 0 {
		t.Fatal("fig10 missing or empty")
	}
	if rep.Fig12 == nil || rep.Fig12.EDP == nil || rep.Fig12.Speedup == nil ||
		rep.Fig12.EDP.BaselineSB != 114 || len(rep.Fig12.EDP.Rows) == 0 {
		t.Fatal("fig12 missing")
	}
	if len(rep.Hists) == 0 || rep.Hists[0].Mech != "base" || rep.Hists[0].Name == "" {
		t.Fatal("histograms missing")
	}
	if rep.Scale.Ops != 2500 {
		t.Fatalf("scale.ops = %d", rep.Scale.Ops)
	}
}

// TestJSONDegradedNamesRegistryRows: the report's degraded section lists
// each registry row's quarantined cells under the row's name, as tusd
// names a job's, in registry order: a cell only Fig. 10 reads is listed
// under fig10 alone, and a cell four figures read under each of them.
func TestJSONDegradedNamesRegistryRows(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 2500
	r.ParallelOps = 300
	r.Supervisor = NewSupervisor(0)
	poisoned := map[string]bool{"503.bw2/TUS/114": true, "505.mcf/TUS/114": true}
	r.testHookSim = func(_ context.Context, key string) error {
		if poisoned[key] {
			return errors.New("poisoned cell")
		}
		return nil
	}
	rep, err := BuildJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for _, f := range Figures() {
		rank[f.Name] = f.Fig
	}
	got := map[string][]string{}
	for i, d := range rep.Degraded {
		if d.Reason == "" || i > 0 && rank[d.Figure] < rank[rep.Degraded[i-1].Figure] {
			t.Fatalf("degraded entry %d %+v: no reason, or out of registry order", i, d)
		}
		got[d.Cell] = append(got[d.Cell], d.Figure)
	}
	want := map[string][]string{
		"503.bw2/TUS/114": {"fig10"},
		"505.mcf/TUS/114": {"fig10", "fig11", "fig8", "fig9"},
	}
	for k := range got {
		sort.Strings(got[k])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("degraded figures per cell = %v, want %v", got, want)
	}
}
