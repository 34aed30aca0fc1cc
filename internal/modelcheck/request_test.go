package modelcheck

import (
	"reflect"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/litmus"
)

// TestCheckRequest pins the front end tuscheck and tusd's litmus jobs
// share: program and mechanism lists, the default mechanisms, and the
// two budgets.
func TestCheckRequest(t *testing.T) {
	if all, err := SelectTests(""); err != nil || len(all) != len(litmus.Tests()) {
		t.Fatalf("SelectTests(\"\") = %d tests, %v", len(all), err)
	}
	two, err := SelectTests("SB, MP")
	if err != nil || len(two) != 2 || two[0].Name != "SB" || two[1].Name != "MP" {
		t.Fatalf("SelectTests(\"SB, MP\") = %v, %v", two, err)
	}
	if _, err := SelectTests("SB,nope"); err == nil || !strings.Contains(err.Error(), `unknown litmus program "nope" (suite: SB,`) {
		t.Fatalf("SelectTests(\"SB,nope\") error = %v", err)
	}
	for spec, want := range map[string][]config.Mechanism{
		DefaultMechs: {config.Baseline, config.CSB, config.TUS},
		"all":        config.Mechanisms,
		" tus ,SSB":  {config.TUS, config.SSB},
	} {
		if got, err := SelectMechs(spec); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("SelectMechs(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := SelectMechs("TUS,LSQ"); err == nil {
		t.Fatal("SelectMechs accepted an unknown mechanism")
	}
	full := Budget(false).withDefaults()
	smoke := Budget(true).withDefaults()
	if full.Skews != 8 || full.MaxDecisions != 8 || full.MaxRuns != 512 ||
		smoke.Skews != 3 || smoke.MaxDecisions != 4 || smoke.MaxRuns != 64 {
		t.Fatalf("budgets: full %d/%d/%d, smoke %d/%d/%d", full.Skews, full.MaxDecisions, full.MaxRuns,
			smoke.Skews, smoke.MaxDecisions, smoke.MaxRuns)
	}
}
