package system_test

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/isa"
	"tusim/internal/litmus"
	"tusim/internal/system"
)

// TestLitmusMachineAllocs pins what building one model-checked machine
// costs in allocations: MP (two cores) at the litmus shape, under every
// mechanism. The explorer builds thousands of these, so each object here
// is paid once per explored schedule. The ceilings sit four objects
// above what New measures (82-98) with store rings that grow on demand
// and counters in per-Set slabs over one process-wide schema; with eager
// rings, a map per Set and an object per counter it was 166-204.
func TestLitmusMachineAllocs(t *testing.T) {
	mp, ok := litmus.ByName("MP")
	if !ok {
		t.Fatal("no MP in the litmus suite")
	}
	for _, tc := range []struct {
		mech config.Mechanism
		max  float64
	}{
		{config.Baseline, 86},
		{config.TUS, 102},
		{config.SSB, 92},
		{config.CSB, 92},
		{config.SPB, 94},
	} {
		cfg := config.Default().WithMechanism(tc.mech).WithCores(len(mp.Threads))
		cfg.StreamPrefetcher = false
		cfg.Reference = false
		streams := make([]isa.Stream, len(mp.Threads))
		for i, th := range mp.Threads {
			streams[i] = isa.NewSliceStream(th.Ops)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := system.New(cfg, streams); err != nil {
				t.Fatal(err)
			}
		})
		if n > tc.max {
			t.Errorf("%v: system.New allocates %.0f objects at the litmus shape, ceiling %.0f", tc.mech, n, tc.max)
		}
	}
}
