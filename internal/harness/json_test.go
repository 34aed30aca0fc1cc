package harness

import (
	"encoding/json"
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
	// The wire schema, decoded independently of the encoder's section
	// table: member names here are the contract with report consumers.
	var rep struct {
		Scale struct {
			Ops int `json:"ops"`
		} `json:"scale"`
		Fig8  []Fig8JSON    `json:"fig8_scalability"`
		Fig9  []Fig9JSON    `json:"fig9_sb_stalls"`
		Fig10 *SpeedupsJSON `json:"fig10_speedups_114"`
		Fig12 *ParsecJSON   `json:"fig12_parsec_114"`
		Hists []HistJSON    `json:"histograms"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(rep.Fig8) != 9 || len(rep.Fig9) == 0 {
		t.Fatalf("fig8=%d fig9=%d rows", len(rep.Fig8), len(rep.Fig9))
	}
	if rep.Fig10 == nil || rep.Fig10.Geomean["TUS"] <= 0 {
		t.Fatal("fig10 missing or empty")
	}
	if rep.Fig12 == nil || rep.Fig12.EDP == nil {
		t.Fatal("fig12 missing")
	}
	if len(rep.Hists) == 0 {
		t.Fatal("histograms missing")
	}
	if rep.Scale.Ops != 2500 {
		t.Fatalf("scale.ops = %d", rep.Scale.Ops)
	}
}
