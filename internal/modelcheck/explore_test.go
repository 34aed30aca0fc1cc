package modelcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/harness"
	"tusim/internal/litmus"
	"tusim/internal/system"
)

func testByName(t *testing.T, name string) litmus.Test {
	t.Helper()
	for _, lt := range litmus.Tests() {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("no litmus test %q", name)
	return litmus.Test{}
}

// quickOpts keeps unit-test explorations fast while still walking a
// few dozen schedules per cell.
func quickOpts() ExploreOpts {
	return ExploreOpts{Skews: 3, MaxDecisions: 4, MaxRuns: 48}
}

// TestCheckSuiteBoundedExhaustive is the model checker's main `go
// test` entry point: every litmus program in the suite, explored under
// the mechanism matrix, must stay inside the oracle's TSO-allowed
// outcome set. This is the acceptance property — zero outcomes outside
// TSO under bounded-exhaustive schedule exploration.
func TestCheckSuiteBoundedExhaustive(t *testing.T) {
	mechs := []config.Mechanism{config.Baseline, config.CSB, config.TUS}
	if testing.Short() {
		mechs = []config.Mechanism{config.TUS}
	}
	for _, lt := range litmus.Tests() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			for _, m := range mechs {
				r, err := Check(lt, m, quickOpts(), Limits{})
				if err != nil {
					t.Fatalf("[%v] %v", m, err)
				}
				if !r.Sound() {
					var sb strings.Builder
					r.Write(&sb)
					t.Errorf("[%v] UNSOUND:\n%s", m, sb.String())
				}
				if r.Exploration.Runs == 0 {
					t.Errorf("[%v] explorer ran nothing", m)
				}
			}
		})
	}
}

// TestExploreObservesRelaxation: the explorer must reach the SB
// relaxation (r1=r2=0) — if the schedule walk cannot even see the
// store buffer, its coverage numbers are meaningless.
func TestExploreObservesRelaxation(t *testing.T) {
	ex := Explore(testByName(t, "SB"), config.TUS, quickOpts())
	if ex.Violation != nil {
		t.Fatalf("unexpected violation: %+v", ex.Violation)
	}
	if _, ok := ex.Outcomes[Key([]uint64{0, 0})]; !ok {
		t.Fatalf("relaxed outcome never observed; census: %v", ex.Outcomes)
	}
}

// TestExploreDeterministicTranscript: identical invocations must
// execute identical run sequences — the exploration analogue of the
// oracle's transcript determinism.
func TestExploreDeterministicTranscript(t *testing.T) {
	a := Explore(testByName(t, "MP"), config.TUS, quickOpts())
	b := Explore(testByName(t, "MP"), config.TUS, quickOpts())
	if !reflect.DeepEqual(a.Transcript, b.Transcript) {
		t.Fatalf("transcripts differ between identical invocations:\n  a: %d lines\n  b: %d lines",
			len(a.Transcript), len(b.Transcript))
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Fatalf("outcome censuses differ: %v vs %v", a.Outcomes, b.Outcomes)
	}
}

// TestExploreTranscriptPinned pins one cell's whole transcript — SB
// under TUS at tuscheck's -smoke budgets — to the bytes recorded before
// the explorer's key building left fmt: run order, script encoding,
// outcome keys and the pruning they feed cannot drift unnoticed.
func TestExploreTranscriptPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "SB_TUS_smoke.transcript"))
	if err != nil {
		t.Fatal(err)
	}
	ex := Explore(testByName(t, "SB"), config.TUS, ExploreOpts{Skews: 3, MaxDecisions: 4, MaxRuns: 64})
	got := strings.Join(ex.Transcript, "\n") + "\n"
	if got != string(want) {
		t.Fatalf("SB/TUS smoke transcript drifted from testdata/SB_TUS_smoke.transcript:\n%s", got)
	}
	census := map[string]int{"[0 0]": 34, "[0 1]": 3, "[1 0]": 6, "[1 1]": 5}
	if ex.Runs != 48 || ex.Pruned != 0 || !reflect.DeepEqual(ex.Outcomes, census) {
		t.Fatalf("runs %d pruned %d census %v, want 48, 0, %v", ex.Runs, ex.Pruned, ex.Outcomes, census)
	}
}

// TestKeyMatchesFmt: outcome keys cross-index with litmus.Result's
// fmt.Sprint keys, so the hand-built form must stay byte-identical.
func TestKeyMatchesFmt(t *testing.T) {
	for _, o := range [][]uint64{nil, {}, {0}, {1, 0, 1}, {0, 18446744073709551615, 42}} {
		if got, want := Key(o), fmt.Sprint(o); got != want {
			t.Errorf("Key(%v) = %q, want %q", o, got, want)
		}
	}
}

// TestExploreSchedulesDiverge: scripted decisions must actually steer
// the machine — across the explored schedules at least two distinct
// consumed decision traces (i.e. real branching) must appear, and
// pruning must collapse at least some commuting flips on a busy
// program.
func TestExploreSchedulesDiverge(t *testing.T) {
	ex := Explore(testByName(t, "MP"), config.TUS, ExploreOpts{Skews: 1, MaxDecisions: 6, MaxRuns: 64})
	if ex.Violation != nil {
		t.Fatalf("unexpected violation: %+v", ex.Violation)
	}
	if ex.Runs < 8 {
		t.Fatalf("explorer stopped after %d runs; decision tree never branched", ex.Runs)
	}
}

// TestCheckViolationPipeline: corrupting protocol state via sabotage
// must surface as a violation with a *replayable* minimal schedule —
// the full capture → minimize → bundle → replay loop.
func TestCheckViolationPipeline(t *testing.T) {
	plan := ExplorePlan()
	plan.SabotageSpec = faults.Sabotage{Cycle: 1, Core: 0, Kind: faults.SabotageHideLine}
	opts := quickOpts()
	opts.Plan = &plan
	opts.AuditEvery = 1

	r, err := Check(testByName(t, "MP"), config.TUS, opts, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sound() {
		t.Fatal("sabotaged run reported sound")
	}
	if r.Violation == nil || r.Violation.Err == nil {
		t.Fatalf("violation carries no error: %+v", r.Violation)
	}
	if r.Bundle == nil {
		t.Fatal("violation produced no repro bundle")
	}

	// The bundle must survive disk and reproduce the failure.
	path := filepath.Join(t.TempDir(), "mc-crash.json")
	if err := r.Bundle.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := harness.LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rerr := loaded.Replay()
	if rerr == nil {
		t.Fatal("replay of the minimized schedule came out clean")
	}
	var cr *system.CrashReport
	if !errors.As(rerr, &cr) {
		t.Fatalf("replay error is not a CrashReport: %v", rerr)
	}
}

// TestCheckFlagsForbiddenOutcome: a (deliberately wrong) annotation
// that forbids a reachable outcome must produce a minimized violation
// — proving the explorer checks outcomes, not just crashes, and that
// minimization converges.
func TestCheckFlagsForbiddenOutcome(t *testing.T) {
	doctored := testByName(t, "SB")
	doctored.Forbidden = func(obs []uint64) bool { return obs[0] == 0 && obs[1] == 0 }
	ex := Explore(doctored, config.TUS, quickOpts())
	if ex.Violation == nil {
		t.Fatalf("reachable 'forbidden' outcome never flagged; census: %v", ex.Outcomes)
	}
	if ex.Violation.Outcome == nil || !doctored.Forbidden(ex.Violation.Outcome) {
		t.Fatalf("violation outcome %v does not satisfy the predicate", ex.Violation.Outcome)
	}
}

// TestUncoveredIsCoverageNotFailure: ATOM's atomic-group guarantee is
// stricter than plain TSO, so the oracle allows outcomes the machine
// never produces; those must land in Uncovered without making the cell
// unsound.
func TestUncoveredIsCoverageNotFailure(t *testing.T) {
	r, err := Check(testByName(t, "ATOM"), config.TUS, quickOpts(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sound() {
		t.Fatalf("ATOM under TUS unsound: %v", r.Unsound)
	}
	got, total := r.Coverage()
	if got > total {
		t.Fatalf("coverage %d/%d out of range", got, total)
	}
}
