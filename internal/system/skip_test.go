package system_test

import (
	"reflect"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
	"tusim/internal/system"
)

// exploreOpts are modelcheck's quickOpts: a few dozen schedules per
// cell under ExplorePlan, every injector site scripted.
func exploreOpts() modelcheck.ExploreOpts {
	p := modelcheck.ExplorePlan()
	return modelcheck.ExploreOpts{Skews: 3, MaxDecisions: 4, MaxRuns: 48, Plan: &p}
}

// deepOpts are the litmus_check benchmark's budgets (tuscheck's skews
// and depth, 128 runs): twice quickOpts' decision depth, where an
// injector consult that a skipped tick dropped moves a choice point into
// the enumerated prefix (quickOpts alone misses a TUS skip that ignores
// WCBFlush).
func deepOpts() modelcheck.ExploreOpts {
	p := modelcheck.ExplorePlan()
	return modelcheck.ExploreOpts{Skews: 8, MaxDecisions: 8, MaxRuns: 128, Plan: &p}
}

// exploreOnReference runs Explore with every machine built on the
// reference side, whose run loop ticks every cycle.
func exploreOnReference(lt litmus.Test, m config.Mechanism, opts modelcheck.ExploreOpts) *modelcheck.Exploration {
	system.SetReference(true)
	defer system.SetReference(false)
	return modelcheck.Explore(lt, m, opts)
}

// TestExploreSameOnReferenceMachine is the litmus-scale identity check
// of the quiescence skip: every program of the suite under every
// mechanism, explored through the injector's scripted choice points,
// must give the same exploration (outcomes, runs, pruned schedules,
// transcript) whether the run loop skips idle cycles or ticks each one.
// The explorer prunes on the consumed decision trace, so a skipped tick
// that would have asked the injector shows up here as a changed run or
// pruned count.
func TestExploreSameOnReferenceMachine(t *testing.T) {
	for _, opts := range []modelcheck.ExploreOpts{exploreOpts(), deepOpts()} {
		for _, lt := range litmus.Tests() {
			for _, m := range config.Mechanisms {
				fast := modelcheck.Explore(lt, m, opts)
				ref := exploreOnReference(lt, m, opts)
				if !reflect.DeepEqual(fast, ref) {
					t.Errorf("%s/%v at depth %d: fast machine explored %d runs (%d pruned) %v, reference %d runs (%d pruned) %v",
						lt.Name, m, opts.MaxDecisions, fast.Runs, fast.Pruned, fast.Outcomes, ref.Runs, ref.Pruned, ref.Outcomes)
				}
			}
		}
	}
}

// TestLitmusSkipsHalfItsCycles pins that the skip stays switched on
// where it pays: MP under the baseline and SB under TUS, run as the
// explorer's first (quiet) schedule runs them, jump at least half of
// their cycles.
func TestLitmusSkipsHalfItsCycles(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    config.Mechanism
	}{{"MP", config.Baseline}, {"SB", config.TUS}} {
		lt, ok := litmus.ByName(tc.name)
		if !ok {
			t.Fatalf("no litmus test %q", tc.name)
		}
		streams := make([]isa.Stream, len(lt.Threads))
		for i, th := range lt.Threads {
			streams[i] = isa.NewSliceStream(th.Ops)
		}
		cfg := config.Default().WithMechanism(tc.m).WithCores(len(streams))
		cfg.Reference = false // the fast machine, also under -tags tus_ref
		sys, err := system.New(cfg, streams)
		if err != nil {
			t.Fatal(err)
		}
		plan := modelcheck.ExplorePlan()
		if err := sys.InstallFaults(faults.NewInjectorWithSource(plan, faults.NewScriptSource(nil))); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		cycles, skipped := sys.Q.Now(), system.Skipped(sys)
		if 2*skipped < cycles {
			t.Errorf("%s/%v: skipped %d of %d cycles, want at least half", tc.name, tc.m, skipped, cycles)
		}
		t.Logf("%s/%v: skipped %d of %d cycles", tc.name, tc.m, skipped, cycles)
	}
}
