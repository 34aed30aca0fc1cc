package modelcheck

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/litmus"
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
// every mechanism, must stay inside the oracle's TSO-allowed outcome
// set. This is the acceptance property — zero outcomes outside TSO
// under bounded-exhaustive schedule exploration.
func TestCheckSuiteBoundedExhaustive(t *testing.T) {
	mechs := config.Mechanisms
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

// TestKeyMatchesFmt: Key is fmt.Sprint's form of an outcome built
// without fmt — the form tuscheck prints and repro errors quote — so
// the hand-built bytes must stay identical to it.
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

// TestCheckCatchesDoctoredOracleSet: an allowed set with a reachable
// outcome removed — SB without its store-buffering [0 0] — must stop
// the explorer with a minimized violation on that outcome, proving the
// explorer judges outcomes against the set it is given, not just
// crashes, and that minimization converges.
func TestCheckCatchesDoctoredOracleSet(t *testing.T) {
	ex := explore(testByName(t, "SB"), config.TUS, quickOpts(), doctoredSB(t, "[0 0]"))
	v := ex.Violation
	if v == nil {
		t.Fatalf("outcome outside the doctored set never flagged; census: %v", ex.Outcomes)
	}
	if v.Err != nil || Key(v.Outcome) != "[0 0]" || v.Reason != "outcome outside the TSO-allowed set" {
		t.Fatalf("violation = %+v, want the outcome [0 0] outside the TSO-allowed set", v)
	}
}

// doctoredSB is SB's allowed set without the outcome cut, which the
// machine reaches.
func doctoredSB(t *testing.T, cut string) *OracleResult {
	t.Helper()
	oracle, err := Oracle(testByName(t, "SB"), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	doctored := *oracle
	doctored.Outcomes = map[string]Outcome{}
	for k, o := range oracle.Outcomes {
		if k != cut {
			doctored.Outcomes[k] = o
		}
	}
	return &doctored
}

// atWorkerCounts runs f under GOMAXPROCS 1 and 4: the explorer's pool
// is GOMAXPROCS wide, so these are a serial walk and a concurrent one.
func atWorkerCounts[T any](t *testing.T, f func() T) (serial, concurrent T) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial = f()
	runtime.GOMAXPROCS(4)
	return serial, f()
}

// TestExploreSameAtAnyWorkerCount: a level's runs finish in any order,
// but they are committed in queue order, so the whole exploration —
// transcript, census, counts and flags — is the serial walk's.
func TestExploreSameAtAnyWorkerCount(t *testing.T) {
	for _, lt := range litmus.Tests() {
		for _, m := range []config.Mechanism{config.Baseline, config.CSB, config.TUS} {
			serial, concurrent := atWorkerCounts(t, func() *Exploration { return Explore(lt, m, quickOpts()) })
			if !reflect.DeepEqual(serial, concurrent) {
				t.Errorf("%s/%v: exploration differs between 1 and 4 workers:\n  1: runs %d pruned %d census %v\n  4: runs %d pruned %d census %v",
					lt.Name, m, serial.Runs, serial.Pruned, serial.Outcomes, concurrent.Runs, concurrent.Pruned, concurrent.Outcomes)
			}
		}
	}
}

// TestViolationSameAtAnyWorkerCount: with each of SB's outcomes cut
// from its allowed set in turn, the pool stops at the first run outside
// the doctored set and nothing after it is committed, so the violation,
// its minimized schedule and the transcript up to it are the serial
// walk's. [1 0] first appears as the second run of a level of six.
func TestViolationSameAtAnyWorkerCount(t *testing.T) {
	sb := testByName(t, "SB")
	for _, cut := range []string{"[0 0]", "[0 1]", "[1 0]", "[1 1]"} {
		doctored := doctoredSB(t, cut)
		serial, concurrent := atWorkerCounts(t, func() *Exploration { return explore(sb, config.TUS, quickOpts(), doctored) })
		if serial.Violation == nil || Key(serial.Violation.Outcome) != cut {
			t.Fatalf("without %s: violation = %+v, want that outcome flagged", cut, serial.Violation)
		}
		if !reflect.DeepEqual(serial, concurrent) {
			t.Errorf("without %s: violation differs between 1 and 4 workers:\n  1: %+v after %d runs\n  4: %+v after %d runs",
				cut, serial.Violation, serial.Runs, concurrent.Violation, concurrent.Runs)
		}
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
