package system

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/isa"
)

// TestWarmupDiscardsStatistics verifies the warm-up window: counters
// and cycles must cover only the post-warm-up region.
func TestWarmupDiscardsStatistics(t *testing.T) {
	var ops []isa.MicroOp
	for i := 0; i < 4000; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: uint64(i%64) * 64, Size: 8})
	}
	run := func(warmup uint64, ref bool) *System {
		cfg := config.Default()
		cfg.Reference = ref
		sys, err := New(cfg, []isa.Stream{isa.NewSliceStream(ops)})
		if err != nil {
			t.Fatal(err)
		}
		sys.WarmupOps = warmup
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	mk := func(warmup uint64) (cycles, committed, stores uint64) {
		sys := run(warmup, false)
		st := sys.StatsSum()
		// The crossover and the cycles skipped around it leave the
		// measured region as the reference machine's tick-every-cycle
		// loop leaves it.
		if ref := run(warmup, true); sys.warmCycle != ref.warmCycle || sys.Cycles != ref.Cycles ||
			st.String() != ref.StatsSum().String() {
			t.Errorf("warm-up %d: fast machine warmed at cycle %d and ran %d cycles, reference at %d and %d (or stats differ)",
				warmup, sys.warmCycle, sys.Cycles, ref.warmCycle, ref.Cycles)
		}
		if sys.skipped == 0 {
			t.Errorf("warm-up %d: the fast machine skipped no cycle", warmup)
		}
		return sys.Cycles, st.Get("committed_ops"), st.Get("stores")
	}
	fullCyc, fullCommitted, _ := mk(0)
	warmCyc, warmCommitted, warmStores := mk(2000)

	if fullCommitted != 4000 {
		t.Fatalf("full run committed %d", fullCommitted)
	}
	if warmCommitted >= 2100 || warmCommitted < 1500 {
		t.Fatalf("post-warmup committed = %d, want ~2000", warmCommitted)
	}
	if warmCyc >= fullCyc {
		t.Fatalf("warmed cycles (%d) not less than full cycles (%d)", warmCyc, fullCyc)
	}
	if warmStores > warmCommitted {
		t.Fatalf("post-warmup stores (%d) exceed committed ops (%d)", warmStores, warmCommitted)
	}
}

// TestWarmupZeroIsNoop: WarmupOps=0 must not reset anything.
func TestWarmupZeroIsNoop(t *testing.T) {
	ops := []isa.MicroOp{{Kind: isa.Store, Addr: 0x100, Size: 8}, {Kind: isa.IntAdd}}
	sys, err := New(config.Default(), []isa.Stream{isa.NewSliceStream(ops)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.TotalCommitted() != 2 {
		t.Fatalf("committed = %d", sys.TotalCommitted())
	}
}
