package litmus_test

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
)

// quietRuns runs lt fault-free under m at start skews 0..skews-1 and
// fails on any outcome outside the oracle's TSO-allowed set. It returns
// the census of observed outcomes.
func quietRuns(t *testing.T, lt litmus.Test, m config.Mechanism, skews int) map[string]int {
	t.Helper()
	oracle, err := modelcheck.Oracle(lt, modelcheck.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	census := map[string]int{}
	for skew := 0; skew < skews; skew++ {
		obs, err := litmus.RunOne(lt, m, skew, litmus.Opts{})
		if err != nil {
			t.Fatalf("%s [%v] skew %d: %v", lt.Name, m, skew, err)
		}
		if !oracle.Allowed(obs) {
			t.Errorf("%s [%v] skew %d: outcome %v outside the TSO-allowed set %v",
				lt.Name, m, skew, obs, oracle.SortedKeys())
		}
		census[modelcheck.Key(obs)]++
	}
	return census
}

func byName(t *testing.T, name string) litmus.Test {
	t.Helper()
	lt, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("no litmus test %q", name)
	}
	return lt
}

// TestForbiddenOutcomesNeverAppear runs every litmus test under every
// mechanism across many interleavings: every outcome must be in the
// oracle's TSO-allowed set.
func TestForbiddenOutcomesNeverAppear(t *testing.T) {
	for _, lt := range litmus.Tests() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			for _, m := range config.Mechanisms {
				quietRuns(t, lt, m, 12)
			}
		})
	}
}

// TestStoreBufferingRelaxationObservable: the r1=r2=0 outcome of the SB
// litmus is the store buffer's signature; every mechanism must expose
// it at some skew (all of them buffer stores).
func TestStoreBufferingRelaxationObservable(t *testing.T) {
	sb := byName(t, "SB")
	relaxed := modelcheck.Key(modelcheck.Outcome{0, 0})
	for _, m := range config.Mechanisms {
		if census := quietRuns(t, sb, m, 12); census[relaxed] == 0 {
			t.Errorf("[%v] never observed r1=r2=0 on the SB litmus; store buffering not visible (outcomes: %v)",
				m, census)
		}
	}
}

// TestFenceForbidsRelaxation: with mfences the SB relaxation must
// disappear under every mechanism (fences flush the SB and, for TUS,
// the WOQ).
func TestFenceForbidsRelaxation(t *testing.T) {
	sbf := byName(t, "SB+fences")
	relaxed := modelcheck.Key(modelcheck.Outcome{0, 0})
	for _, m := range config.Mechanisms {
		if census := quietRuns(t, sbf, m, 12); census[relaxed] != 0 {
			t.Errorf("[%v] fenced store buffering leaked: %v", m, census)
		}
	}
}

// TestMessagePassingOrderUnderTUS focuses the MP pattern on TUS with
// more skews (the WOQ's in-order publication is exactly what it tests).
func TestMessagePassingOrderUnderTUS(t *testing.T) {
	for _, name := range []string{"MP", "MP+cycle", "ATOM", "CoWW"} {
		quietRuns(t, byName(t, name), config.TUS, 24)
	}
}
