package system

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/event"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/stats"
	"tusim/internal/tus"
)

// built keeps what a measured constructor returns on the heap.
var built any

// footprint reports the heap bytes and allocations of one call of f.
func footprint(f func()) (bytes, allocs uint64) {
	const n = 20
	f() // lazy runtime set-up is not the machine's cost
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return (b.TotalAlloc - a.TotalAlloc) / n, (b.Mallocs - a.Mallocs) / n
}

// TestBuildFootprint pins what New costs at Table I's capacities: a
// machine that has touched nothing pays a fixed part plus a per-core
// part, not for its 64 Mi-line LLC, 1024-set L2s or 512-entry ROBs.
// Capacity is a bound, not an allocation (DESIGN.md, "Build cost"). The
// ceilings sit about 25% above what the build measures; the eager LLC
// set table alone was 1.5 MiB per machine.
func TestBuildFootprint(t *testing.T) {
	for _, tc := range []struct {
		mech                         config.Mechanism
		fixedB, coreB, fixedN, coreN uint64
	}{
		{config.Baseline, 18_400, 20_400, 38, 101},
		{config.TUS, 18_400, 24_300, 38, 125},
	} {
		for _, cores := range []int{1, 4, 16} {
			// The pin is on the production containers; tus_ref's
			// reference twins allocate differently by design.
			cfg := config.Default().WithMechanism(tc.mech).WithCores(cores)
			cfg.Reference = false
			streams := make([]isa.Stream, cores)
			for i := range streams {
				streams[i] = isa.NewSliceStream(nil)
			}
			bytes, allocs := footprint(func() {
				if _, err := New(cfg, streams); err != nil {
					t.Fatal(err)
				}
			})
			maxB, maxN := tc.fixedB+tc.coreB*uint64(cores), tc.fixedN+tc.coreN*uint64(cores)
			t.Logf("%v x%d: %d B, %d allocs (ceilings %d, %d)", tc.mech, cores, bytes, allocs, maxB, maxN)
			if bytes > maxB || allocs > maxN {
				t.Errorf("%v x%d: system.New costs %d B in %d allocs, ceilings %d B = %d + %d/core and %d allocs = %d + %d/core; by component:\n%s",
					tc.mech, cores, bytes, allocs, maxB, tc.fixedB, tc.coreB, maxN, tc.fixedN, tc.coreN, buildBreakdown(cfg))
			}
		}
	}
}

// buildBreakdown measures each constructor New calls on its own, so a
// tripped ceiling names the component that grew.
func buildBreakdown(cfg *config.Config) string {
	q := event.NewQueueRef(false)
	st := stats.NewSet("x")
	dir := memsys.NewDirectory(cfg, q, memsys.NewMemory(), memsys.NewDRAM(q, cfg.DRAMLatency, cfg.DRAMMaxInFlight), st)
	priv := memsys.NewPrivate(0, cfg, q, dir, st)
	core := cpu.NewCore(0, cfg, q, priv, isa.NewSliceStream(nil), st)
	setB, setN := footprint(func() { built = stats.NewSet("core") })
	var b strings.Builder
	fmt.Fprintf(&b, "  %-72s %7d B %4d allocs\n", "per core and once per machine: stats.NewSet (name map)", setB, setN)
	// Each constructor below registers its counters in a fresh Set, whose
	// own cost is taken out again.
	for _, c := range []struct {
		name string
		f    func(*stats.Set)
	}{
		{"per machine: memsys.NewDirectory (LLC set-table index, counters)", func(st *stats.Set) {
			built = memsys.NewDirectory(cfg, q, memsys.NewMemory(), memsys.NewDRAM(q, cfg.DRAMLatency, cfg.DRAMMaxInFlight), st)
		}},
		{"per core: memsys.NewPrivate (L1D/L2 set-table indexes, line maps, counters)", func(st *stats.Set) {
			built = memsys.NewPrivate(0, cfg, q, dir, st)
		}},
		{"per core: cpu.NewCore (ROB ring, SB ring, counters)", func(st *stats.Set) {
			built = cpu.NewCore(0, cfg, q, priv, isa.NewSliceStream(nil), st)
		}},
		{"per core: tus.New (TUS only: WOQ, WCBs, counters)", func(st *stats.Set) { built = tus.New(core, cfg, q, st) }},
	} {
		bytes, allocs := footprint(func() { c.f(stats.NewSet("core")) })
		fmt.Fprintf(&b, "  %-72s %7d B %4d allocs\n", c.name, bytes-setB, allocs-setN)
	}
	bytes, allocs := footprint(func() { built = event.NewQueueRef(false) })
	fmt.Fprintf(&b, "  %-72s %7d B %4d allocs\n", "per machine: event.NewQueueRef", bytes, allocs)
	return b.String()
}
