package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"tusim/internal/audit"
	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
	"tusim/internal/parmap"
	"tusim/internal/system"
	"tusim/internal/tso"
	"tusim/internal/workload"
)

// ChaosPatterns names the litmus tests the chaos driver exercises: the
// store-buffering, message-passing, and atomic-group patterns are the
// ones whose TSO guarantees depend on the WOQ / lex-order machinery.
var ChaosPatterns = []string{"SB", "MP", "ATOM"}

// ReproBundle is everything needed to deterministically replay one
// crashed (or suspect) run: the workload identity, the fault plan, and
// the attached crash diagnosis. Bundles serialize to JSON and replay
// via Replay (the `tusim -repro` path).
type ReproBundle struct {
	// Kind selects the replay procedure: "litmus" or "bench".
	Kind string `json:"kind"`
	// Name is the litmus test or benchmark name.
	Name      string           `json:"name"`
	Mechanism config.Mechanism `json:"mechanism"`
	// Skew is the litmus start-offset index.
	Skew int `json:"skew,omitempty"`
	// Seed/Ops size a bench replay (unused for litmus).
	Seed int64 `json:"seed,omitempty"`
	Ops  int   `json:"ops,omitempty"`
	// SB is the bench store-buffer size (0 = config default).
	SB         int    `json:"sb,omitempty"`
	AuditEvery uint64 `json:"audit_every,omitempty"`
	Watchdog   uint64 `json:"watchdog,omitempty"`
	// Faults is the injected schedule (includes its seed).
	Faults faults.Plan `json:"faults"`
	// Script, when non-nil, pins the injector's decision stream
	// explicitly instead of deriving it from Faults.Seed: the model
	// checker's minimal violating schedules replay through it
	// (litmus-kind bundles only). An empty-but-present script is the
	// quiet all-defaults schedule, which is distinct from no script.
	Script []faults.Decision `json:"script,omitempty"`
	// Scripted marks the bundle as schedule-pinned even when Script
	// minimized to empty (JSON omits empty slices).
	Scripted bool `json:"scripted,omitempty"`
	// Report is the diagnosis from the crashing run (informational;
	// replay regenerates it).
	Report *system.CrashReport `json:"report,omitempty"`
	// Classification is the report's transient/deterministic verdict
	// (see CrashReport.Classification): "transient" failures may not
	// replay byte-for-byte under different host timing pressure, while
	// "deterministic" ones must reproduce exactly. Derived from Report
	// at save time.
	Classification string `json:"classification,omitempty"`
}

// Save writes the bundle as indented JSON.
func (b *ReproBundle) Save(path string) error {
	if b.Report != nil {
		b.Classification = b.Report.Classification()
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBundle reads a bundle written by Save.
func LoadBundle(path string) (*ReproBundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b ReproBundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("harness: bad repro bundle %s: %w", path, err)
	}
	return &b, nil
}

// Replay re-executes the bundled run and returns the error it
// reproduces (nil means the run came out clean — the bug did not
// replay, which for a deterministic simulator indicates the bundle and
// binary are out of sync). A litmus run is judged like a chaos cell:
// its own error, else an outcome outside the TSO-allowed set.
func (b *ReproBundle) Replay() error {
	switch b.Kind {
	case "litmus":
		test, ok := litmus.ByName(b.Name)
		if !ok {
			return fmt.Errorf("harness: unknown litmus test %q", b.Name)
		}
		oracle, err := modelcheck.Oracle(test, modelcheck.Limits{})
		if err != nil {
			return err
		}
		o := litmus.Opts{
			Faults:     &b.Faults,
			AuditEvery: b.AuditEvery,
			Watchdog:   b.Watchdog,
		}
		if b.Scripted || len(b.Script) > 0 {
			o.Source = faults.NewScriptSource(b.Script)
		}
		obs, err := litmus.RunOne(test, b.Mechanism, b.Skew, o)
		return litmusVerdict(oracle, b.Mechanism, b.Skew, obs, err)
	case "bench":
		bench, ok := workload.ByName(b.Name)
		if !ok {
			return fmt.Errorf("harness: unknown benchmark %q", b.Name)
		}
		_, err := RunChaosBench(bench, b.Mechanism, b.Seed, b.Ops, b.SB, b.Faults, b.AuditEvery, b.Watchdog)
		return err
	}
	return fmt.Errorf("harness: unknown bundle kind %q", b.Kind)
}

// litmusVerdict is the one pass/fail rule for a litmus run, shared by
// the chaos matrix and Replay: the run's own error (TSO checker,
// auditor, crash), else an outcome outside the oracle's TSO-allowed set.
func litmusVerdict(oracle *modelcheck.OracleResult, m config.Mechanism, skew int, obs []uint64, err error) error {
	if err == nil && !oracle.Allowed(obs) {
		err = fmt.Errorf("harness: TSO-forbidden outcome %v in %s/%v skew %d", obs, oracle.Program.Name, m, skew)
	}
	return err
}

// ViolationBundle is the replayable schedule for a model-checker
// report's violating run, or nil when the cell is sound.
func ViolationBundle(r *modelcheck.Report) *ReproBundle {
	v := r.Exploration.Violation
	if v == nil {
		return nil
	}
	return &ReproBundle{
		Kind:       "litmus",
		Name:       r.Test,
		Mechanism:  r.Mech,
		Skew:       v.Ref.Skew,
		AuditEvery: r.Exploration.AuditEvery,
		Faults:     r.Exploration.Plan,
		Script:     v.Ref.Script,
		Scripted:   true,
	}
}

// RunChaosBench runs one benchmark under fault injection with the TSO
// checker and invariant auditor attached, returning the final cycle
// count. Any returned error may be a *system.CrashReport.
func RunChaosBench(b workload.Benchmark, m config.Mechanism, seed int64, ops, sb int,
	plan faults.Plan, auditEvery, watchdog uint64) (uint64, error) {
	cfg := config.Default().WithMechanism(m).WithCores(b.Threads)
	if sb > 0 {
		cfg = cfg.WithSB(sb)
	}
	if watchdog != 0 {
		cfg.WatchdogWindow = watchdog
	}
	sys, err := system.New(cfg, b.Streams(seed, ops))
	if err != nil {
		return 0, err
	}
	ck := tso.NewChecker(cfg.Cores)
	sys.SetObserver(ck)
	if err := sys.InstallFaults(faults.NewInjector(plan)); err != nil {
		return 0, err
	}
	if auditEvery != 0 {
		audit.Install(sys, auditEvery)
	}
	if err := sys.Run(); err != nil {
		return 0, err
	}
	ck.Finish()
	if err := ck.Err(); err != nil {
		return 0, err
	}
	return sys.Cycles, nil
}

// ChaosResult summarizes a chaos sweep.
type ChaosResult struct {
	Runs     int
	Injected bool
	// Bundle is non-nil when a run crashed or violated TSO; it replays
	// the failing cell.
	Bundle *ReproBundle
	// Err is the failure the bundle reproduces.
	Err error
}

// ChaosLitmus sweeps the litmus chaos matrix: every mechanism ×
// ChaosPatterns × schedules derived fault plans × skews start offsets,
// each under the TSO checker and the invariant auditor, fanned out over
// a workers-wide pool (<= 1 means serial). It stops at the first
// failure (in deterministic matrix order) with a repro bundle; a clean
// sweep returns Bundle == nil.
func ChaosLitmus(seed uint64, schedules, skews int, auditEvery uint64, workers int) (ChaosResult, error) {
	res := ChaosResult{Injected: true}
	// Each pattern's allowed set is computed once and shared read-only
	// by all of its cells.
	type pattern struct {
		test   litmus.Test
		oracle *modelcheck.OracleResult
	}
	pats := make([]pattern, len(ChaosPatterns))
	for pi, name := range ChaosPatterns {
		test, ok := litmus.ByName(name)
		if !ok {
			return res, fmt.Errorf("harness: unknown chaos pattern %q", name)
		}
		oracle, err := modelcheck.Oracle(test, modelcheck.Limits{})
		if err != nil {
			return res, err
		}
		pats[pi] = pattern{test, oracle}
	}
	type chaosCell struct{ mi, pi, si, skew int }
	var cells []chaosCell
	for mi := range config.Mechanisms {
		for pi := range pats {
			for si := 0; si < schedules; si++ {
				for skew := 0; skew < skews; skew++ {
					cells = append(cells, chaosCell{mi, pi, si, skew})
				}
			}
		}
	}
	// cellPlan rederives the seeded plan from the cell coordinates, so
	// each concurrent run owns a private Plan.
	cellPlan := func(c chaosCell) faults.Plan {
		return faults.Schedule(faults.MixSeed(seed, uint64(c.mi), uint64(c.pi), uint64(c.si)))
	}
	failIdx, failErr := parmap.Parmap(context.Background(), workers, len(cells), func(i int) error {
		c := cells[i]
		m := config.Mechanisms[c.mi]
		plan := cellPlan(c)
		obs, err := litmus.RunOne(pats[c.pi].test, m, c.skew, litmus.Opts{
			Faults:     &plan,
			AuditEvery: auditEvery,
		})
		return litmusVerdict(pats[c.pi].oracle, m, c.skew, obs, err)
	})
	if failIdx < 0 {
		res.Runs = len(cells)
		return res, nil
	}
	c := cells[failIdx]
	res.Runs = failIdx + 1
	res.Err = failErr
	res.Bundle = &ReproBundle{
		Kind:       "litmus",
		Name:       ChaosPatterns[c.pi],
		Mechanism:  config.Mechanisms[c.mi],
		Skew:       c.skew,
		AuditEvery: auditEvery,
		Faults:     cellPlan(c),
	}
	var cr *system.CrashReport
	if errors.As(failErr, &cr) {
		res.Bundle.Report = cr
		res.Bundle.Classification = cr.Classification()
	}
	return res, nil
}

// ChaosBench runs each SB-bound benchmark once under TUS with a
// seed-derived fault plan (the deeper soak behind `tusim -chaos-seed`),
// fanned out over a workers-wide pool.
func ChaosBench(seed uint64, ops int, auditEvery uint64, workers int) (ChaosResult, error) {
	res := ChaosResult{Injected: true}
	benchs := workload.SBBound()
	cellPlan := func(bi int) faults.Plan {
		return faults.Schedule(faults.MixSeed(seed, 0xBE9C4, uint64(bi)))
	}
	failIdx, failErr := parmap.Parmap(context.Background(), workers, len(benchs), func(bi int) error {
		plan := cellPlan(bi)
		_, err := RunChaosBench(benchs[bi], config.TUS, int64(seed), ops, 0, plan, auditEvery, 0)
		return err
	})
	if failIdx < 0 {
		res.Runs = len(benchs)
		return res, nil
	}
	res.Runs = failIdx + 1
	res.Err = failErr
	res.Bundle = &ReproBundle{
		Kind:       "bench",
		Name:       benchs[failIdx].Name,
		Mechanism:  config.TUS,
		Seed:       int64(seed),
		Ops:        ops,
		AuditEvery: auditEvery,
		Faults:     cellPlan(failIdx),
	}
	var cr *system.CrashReport
	if errors.As(failErr, &cr) {
		res.Bundle.Report = cr
		res.Bundle.Classification = cr.Classification()
	}
	return res, nil
}
