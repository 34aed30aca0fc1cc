package harness

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
	"tusim/internal/system"
)

// TestChaosFuzzMatrix sweeps the full chaos matrix — every mechanism ×
// {SB, MP, ATOM} × 3 seeded fault schedules × 8 start skews — under the
// TSO checker and the invariant auditor. Seed 7 is pinned: its MP/base
// cell is the schedule that originally exposed the missing MOB
// invalidation snoop (load->load reordering under injected latency).
func TestChaosFuzzMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fuzz matrix skipped in -short")
	}
	for _, seed := range []uint64{7, 21} {
		res, err := ChaosLitmus(seed, 3, 8, 64, 4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Bundle != nil {
			t.Fatalf("seed %d: chaos failure after %d runs: %v", seed, res.Runs, res.Err)
		}
		want := len(config.Mechanisms) * len(ChaosPatterns) * 3 * 8
		if res.Runs != want {
			t.Fatalf("seed %d: ran %d cells, want %d", seed, res.Runs, want)
		}
	}
}

// sabotageRun executes one litmus cell with a deliberate corruption
// scheduled and returns the resulting crash report.
func sabotageRun(t *testing.T, m config.Mechanism, plan faults.Plan) (*system.CrashReport, error) {
	t.Helper()
	test := findTest(t, "MP")
	_, err := litmus.RunOne(test, m, 0, litmus.Opts{Faults: &plan, AuditEvery: 1})
	if err == nil {
		return nil, nil
	}
	var cr *system.CrashReport
	if !errors.As(err, &cr) {
		t.Fatalf("sabotage produced a non-CrashReport error: %v", err)
	}
	return cr, err
}

func findTest(t *testing.T, name string) litmus.Test {
	t.Helper()
	for _, lt := range litmus.Tests() {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("litmus test %q not found", name)
	return litmus.Test{}
}

// TestSabotageDetectedAndReproduced proves the whole detection pipeline
// end to end, for both sabotage kinds: deliberate corruption must yield
// a CrashReport naming a violated invariant, and the saved repro bundle
// must deterministically reproduce the identical crash via Replay (the
// `tusim -repro` path).
func TestSabotageDetectedAndReproduced(t *testing.T) {
	cases := []struct {
		name string
		mech config.Mechanism
		kind string
	}{
		// hide-line corrupts TUS's NotVisible bookkeeping, so it needs the
		// TUS drain; drop-owner corrupts the directory under any mechanism.
		{"hide-line", config.TUS, faults.SabotageHideLine},
		{"drop-owner", config.Baseline, faults.SabotageDropOwner},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.Plan{
				Seed:         1,
				SabotageSpec: faults.Sabotage{Cycle: 1, Core: 0, Kind: tc.kind},
			}
			cr, err := sabotageRun(t, tc.mech, plan)
			if cr == nil {
				t.Fatalf("%s sabotage went undetected", tc.kind)
			}
			if cr.Kind != system.CrashAudit && cr.Kind != system.CrashInvariant {
				t.Fatalf("crash kind = %q, want audit or invariant", cr.Kind)
			}
			if cr.Violation == nil || cr.Violation.Invariant == "" {
				t.Fatalf("crash report names no invariant: %+v", cr)
			}

			// Round-trip through the bundle file and replay.
			bundle := &ReproBundle{
				Kind:       "litmus",
				Name:       "MP",
				Mechanism:  tc.mech.String(),
				AuditEvery: 1,
				Faults:     plan,
				Report:     cr,
			}
			path := filepath.Join(t.TempDir(), "crash.json")
			if err := bundle.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadBundle(path)
			if err != nil {
				t.Fatal(err)
			}
			rerr := loaded.Replay()
			if rerr == nil {
				t.Fatal("replay did not reproduce the crash")
			}
			var rcr *system.CrashReport
			if !errors.As(rerr, &rcr) {
				t.Fatalf("replay error is not a *CrashReport: %v", rerr)
			}
			// Determinism: the replay must die the same death at the same
			// cycle for the same invariant.
			if rcr.Kind != cr.Kind || rcr.Cycle != cr.Cycle ||
				rcr.Violation.Invariant != cr.Violation.Invariant {
				t.Fatalf("replay diverged:\n  original: %s cycle=%d inv=%s\n  replay:   %s cycle=%d inv=%s",
					cr.Kind, cr.Cycle, cr.Violation.Invariant,
					rcr.Kind, rcr.Cycle, rcr.Violation.Invariant)
			}
		})
	}
}

// TestLitmusVerdict pins the one verdict the chaos matrix and Replay
// share: a run error passes through, an outcome outside the oracle's
// set is an error naming it, and an allowed outcome is clean.
func TestLitmusVerdict(t *testing.T) {
	oracle, err := modelcheck.Oracle(findTest(t, "MP"), modelcheck.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := litmusVerdict(oracle, config.Baseline, 4, []uint64{1, 0}, nil); err == nil ||
		!strings.Contains(err.Error(), "[1 0] in MP/base skew 4") {
		t.Errorf("MP [1 0]: verdict %v, want an error naming the outcome and cell", err)
	}
	if err := litmusVerdict(oracle, config.Baseline, 4, []uint64{1, 1}, nil); err != nil {
		t.Errorf("MP [1 1]: verdict %v, want nil", err)
	}
	runErr := errors.New("checker tripped")
	if err := litmusVerdict(oracle, config.Baseline, 4, nil, runErr); err != runErr {
		t.Errorf("run error: verdict %v, want it passed through", err)
	}
}

// TestCheckViolationPipeline: corrupting protocol state via sabotage
// must surface as a model-checker violation with a *replayable*
// minimal schedule — the full capture → minimize → bundle → replay
// loop.
func TestCheckViolationPipeline(t *testing.T) {
	plan := modelcheck.ExplorePlan()
	plan.SabotageSpec = faults.Sabotage{Cycle: 1, Core: 0, Kind: faults.SabotageHideLine}
	opts := modelcheck.ExploreOpts{Skews: 3, MaxDecisions: 4, MaxRuns: 48, Plan: &plan, AuditEvery: 1}

	r, err := modelcheck.Check(findTest(t, "MP"), config.TUS, opts, modelcheck.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sound() {
		t.Fatal("sabotaged run reported sound")
	}
	if v := r.Exploration.Violation; v == nil || v.Err == nil {
		t.Fatalf("violation carries no error: %+v", v)
	}
	bundle := ViolationBundle(r)
	if bundle == nil {
		t.Fatal("violation produced no repro bundle")
	}

	// The bundle must survive disk and reproduce the failure.
	path := filepath.Join(t.TempDir(), "mc-crash.json")
	if err := bundle.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(path)
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

// TestChaosBenchSoak runs the benchmark leg of the chaos sweep once
// with a small op count (the full soak runs via `tusim -chaos-seed`).
func TestChaosBenchSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos bench soak skipped in -short")
	}
	res, err := ChaosBench(7, 1500, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bundle != nil {
		t.Fatalf("bench soak failed after %d runs: %v", res.Runs, res.Err)
	}
	if res.Runs == 0 {
		t.Fatal("bench soak ran nothing")
	}
}

// TestBundleRejectsGarbage: a corrupt bundle file must fail loudly.
func TestBundleRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := (&ReproBundle{Kind: "litmus", Name: "MP"}).Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing bundle succeeded")
	}
	b := &ReproBundle{Kind: "nonsense"}
	if err := b.Replay(); err == nil {
		t.Fatal("replaying an unknown bundle kind succeeded")
	}
}
