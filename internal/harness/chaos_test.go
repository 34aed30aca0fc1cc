package harness

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tusim/internal/audit"
	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
	"tusim/internal/system"
	"tusim/internal/tso"
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

// TestReplayRejectsMalformedSabotage: a bundle whose sabotage names an
// unknown kind or a core the machine does not have fails its replay
// with an error naming the field and value, instead of replaying a
// clean run that reads as "did not reproduce".
func TestReplayRejectsMalformedSabotage(t *testing.T) {
	for _, tc := range []struct {
		spec faults.Sabotage
		want string
	}{
		{faults.Sabotage{Cycle: 1, Core: 0, Kind: "hide_line"}, `sabotage kind "hide_line"`},
		{faults.Sabotage{Cycle: 1, Core: 5, Kind: faults.SabotageHideLine}, "sabotage core 5"},
		{faults.Sabotage{Cycle: 1, Core: -1, Kind: faults.SabotageDropOwner}, "sabotage core -1"},
	} {
		b := &ReproBundle{
			Kind: "litmus", Name: "MP", Mechanism: config.TUS, AuditEvery: 1,
			Faults: faults.Plan{Seed: 1, SabotageSpec: tc.spec},
		}
		if err := b.Replay(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Replay with sabotage %+v = %v, want an error naming %s", tc.spec, err, tc.want)
		}
	}
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
				Mechanism:  tc.mech,
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

// TestChaosRereadsNackedWriteBack reaches what the seeded chaos matrix
// never pairs: a dirty line evicted from a tiny private hierarchy while
// the directory NACKs its write-back, then read again before the
// write-back's retry lands. That load must wait for the write-back (a
// line whose PLine.wb is set starts no miss): the directory still lists
// the core as the line's owner, so a miss started early is granted the
// LLC's stale copy without a probe and the core reads around its own
// store, which the per-cycle audit reports as a directory that no
// longer names the owner (and the TSO checker as a lost store). Seeded
// NACKs, every mechanism.
func TestChaosRereadsNackedWriteBack(t *testing.T) {
	// Six lines share one set of a 2-way L2 (and of a 2-way L1). Each
	// round stores to one line, fences it out, reads two others, whose
	// fills evict the stored line dirty, and then reads the stored line
	// back as soon as the second fill lands (a data dependence on it).
	const l2Sets = 4
	rng := rand.New(rand.NewSource(5))
	var ops []isa.MicroOp
	for i := 0; i < 40; i++ {
		l := rng.Perm(6)
		a, b, c := l[0], l[1], l[2]
		at := func(k int) uint64 { return uint64(1<<30) + uint64(k)*l2Sets*64 }
		ops = append(ops,
			isa.MicroOp{Kind: isa.Store, Addr: at(a), Size: 8},
			isa.MicroOp{Kind: isa.Fence},
			isa.MicroOp{Kind: isa.Load, Addr: at(b), Size: 8},
			isa.MicroOp{Kind: isa.Load, Addr: at(c), Size: 8},
			isa.MicroOp{Kind: isa.Load, Addr: at(a), Size: 8, Dep1: 1})
	}
	for _, m := range config.Mechanisms {
		for _, seed := range []uint64{1, 2} {
			cfg := config.Default().WithMechanism(m)
			cfg.L1D.SizeBytes, cfg.L1D.Ways = 2*64*2, 2
			cfg.L2.SizeBytes, cfg.L2.Ways = l2Sets*64*2, 2
			sys, err := system.New(cfg, []isa.Stream{isa.NewSliceStream(ops)})
			if err != nil {
				t.Fatal(err)
			}
			ck := tso.NewChecker(1)
			sys.SetObserver(ck)
			if err := sys.InstallFaults(faults.NewInjector(faults.Plan{Seed: seed, NackPct: 40})); err != nil {
				t.Fatal(err)
			}
			audit.Install(sys, 1)
			if err := sys.Run(); err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			ck.Finish()
			if err := ck.Err(); err != nil {
				t.Fatalf("%v seed %d: %v", m, seed, err)
			}
			if sys.StatsSum().Get("writebacks") == 0 {
				t.Fatalf("%v seed %d: no write-back", m, seed)
			}
		}
	}
}

// TestReplayStoredBundle: a bundle written when ReproBundle kept the
// mechanism as a plain string (testdata: MP under TUS with a hide-line
// sabotage, plus the crash report it produced) loads as config.TUS,
// replays the same crash, and saves back to the same bytes.
func TestReplayStoredBundle(t *testing.T) {
	path := filepath.Join("testdata", "bundle_MP_TUS_hide_line.json")
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mechanism != config.TUS || b.Report == nil || b.Report.Violation == nil {
		t.Fatalf("loaded %v with report %+v", b.Mechanism, b.Report)
	}
	var cr *system.CrashReport
	if err := b.Replay(); !errors.As(err, &cr) {
		t.Fatalf("replay = %v, want a crash report", err)
	}
	if cr.Kind != b.Report.Kind || cr.Cycle != b.Report.Cycle || cr.Message != b.Report.Message {
		t.Fatalf("replay crashed %s at cycle %d (%s), the bundle says %s at %d (%s)",
			cr.Kind, cr.Cycle, cr.Message, b.Report.Kind, b.Report.Cycle, b.Report.Message)
	}
	saved := filepath.Join(t.TempDir(), "again.json")
	if err := b.Save(saved); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(path)
	if got, _ := os.ReadFile(saved); !bytes.Equal(got, want) {
		t.Fatalf("Save writes %d bytes where the stored bundle has %d", len(got), len(want))
	}
}

// TestEmptyScriptBundleReplaysScripted: a violation whose minimized
// schedule is empty is pinned to the quiet all-defaults schedule, not to
// the explorer plan's seeded stream. Its bundle keeps the empty script
// through Save and LoadBundle ("script": []) and replays the explored
// crash under a ScriptSource; dropped, the same bundle replays seeded.
func TestEmptyScriptBundleReplaysScripted(t *testing.T) {
	plan := modelcheck.ExplorePlan()
	plan.SabotageSpec = faults.Sabotage{Cycle: 1, Core: 0, Kind: faults.SabotageHideLine}
	opts := modelcheck.ExploreOpts{Skews: 1, MaxDecisions: 4, MaxRuns: 16, Plan: &plan, AuditEvery: 1}
	r, err := modelcheck.Check(findTest(t, "MP"), config.TUS, opts, modelcheck.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	v := r.Exploration.Violation
	if v == nil || len(v.Ref.Script) != 0 {
		t.Fatalf("want a violation minimized to the empty schedule, got %+v", v)
	}
	var want *system.CrashReport
	if !errors.As(v.Err, &want) {
		t.Fatalf("violation error is not a CrashReport: %v", v.Err)
	}

	path := filepath.Join(t.TempDir(), "mc-crash.json")
	if err := ViolationBundle(r).Save(path); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); !bytes.Contains(data, []byte(`"script": []`)) {
		t.Fatalf("saved bundle lost its empty script:\n%s", data)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Script == nil || len(*b.Script) != 0 {
		t.Fatalf("loaded script = %v, want present and empty", b.Script)
	}
	var got *system.CrashReport
	if err := b.Replay(); !errors.As(err, &got) || got.Kind != want.Kind || got.Cycle != want.Cycle {
		t.Fatalf("scripted replay = %v, want %s at cycle %d", err, want.Kind, want.Cycle)
	}
	b.Script = nil
	if err := b.Replay(); errors.As(err, &got) && got.Kind == want.Kind && got.Cycle == want.Cycle {
		t.Fatalf("the seeded replay reproduced the scripted crash (%s at cycle %d); the test no longer tells the two apart", got.Kind, got.Cycle)
	}
}

// TestOldBundleMembersLoad: a bundle written while ReproBundle still had
// its sb, watchdog and scripted members loads, ignores them, and
// replays its sabotage crash (unscripted: it carries no script).
func TestOldBundleMembersLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"kind":"litmus","name":"MP","mechanism":"TUS","sb":32,"audit_every":1,"watchdog":5000,` +
		`"faults":{"seed":1,"sabotage":{"cycle":1,"core":0,"kind":"hide-line"}},"scripted":true}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Mechanism != config.TUS || b.AuditEvery != 1 || b.Script != nil {
		t.Fatalf("loaded %+v", b)
	}
	var cr *system.CrashReport
	if err := b.Replay(); !errors.As(err, &cr) || cr.Violation == nil {
		t.Fatalf("replay = %v, want the sabotage's crash report", err)
	}
}
