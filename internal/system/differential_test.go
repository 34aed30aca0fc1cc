package system

import (
	"errors"
	"fmt"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/workload"
)

// TestReferenceWholeSystemIdentity is the whole-machine half of the
// differential state-identity rig (the memsys package holds the
// per-drain-point half): every mechanism runs the same workload twice,
// once on the fast containers and time wheel and once with
// config.Reference set, and the complete runs must agree on cycle
// count and every statistic. Combined with `go test -tags tus_ref
// ./...` — which replays the entire suite, golden figures included, on
// the reference side — this pins observational equivalence of the fast
// structures and their reference twins at full-system scale.
func TestReferenceWholeSystemIdentity(t *testing.T) {
	run := func(t *testing.T, m config.Mechanism, bench string, threads bool, ops int, ref bool) (uint64, string) {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		cfg := config.Default().WithMechanism(m)
		if threads {
			cfg = cfg.WithCores(b.Threads)
		}
		cfg.Reference = ref
		sys, err := New(cfg, b.Streams(3, ops))
		if err != nil {
			t.Fatal(err)
		}
		sys.WarmupOps = uint64(ops) * uint64(cfg.Cores) / 3
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return sys.Cycles, sys.StatsSum().String()
	}

	cases := []struct {
		m       config.Mechanism
		bench   string
		threads bool
		ops     int
	}{
		{config.TUS, "502.gcc2", false, 6000},
		{config.Baseline, "505.mcf", false, 30000},
		{config.CSB, "502.gcc5", false, 6000},
		{config.TUS, "fluidanimate", true, 6000}, // 16-core: directory + probe traffic
		// The indexed store ring against its entry-by-entry twin where it
		// is deepest: SSB's 1,024-entry TSOB, streaming and bursty, long
		// enough to wrap it (a broken chain or run length shows as a cycle
		// or RFO-count divergence here).
		{config.SSB, "tf.embed", false, 40000},
		{config.SSB, "502.gcc2", false, 40000},
		{config.SSB, "502.gcc4", false, 20000}, // the lookahead's run lengths move its RFO count
		// 16 cores: probes take E/M away under the drains' blocked heads,
		// which must end the skipping of their lookahead walks.
		{config.SSB, "canneal", true, 6000},
		{config.Baseline, "canneal", true, 6000},
		{config.CSB, "canneal", true, 6000},
		// Every drain's lookahead skip on the miss-bound proxy (SPB is
		// base plus a prefetcher).
		{config.SPB, "505.mcf", false, 30000},
		{config.CSB, "505.mcf", false, 30000},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.m.String()+"/"+tc.bench, func(t *testing.T) {
			fastCycles, fastStats := run(t, tc.m, tc.bench, tc.threads, tc.ops, false)
			refCycles, refStats := run(t, tc.m, tc.bench, tc.threads, tc.ops, true)
			if fastCycles != refCycles {
				t.Fatalf("cycle divergence: fast=%d ref=%d", fastCycles, refCycles)
			}
			if fastStats != refStats {
				t.Fatalf("stats divergence:\nfast:\n%s\nref:\n%s", fastStats, refStats)
			}
		})
	}
}

type nopAuditor struct{}

func (nopAuditor) Audit(uint64) *faults.ProtocolError { return nil }

// TestWheelHoldsAllCellTraffic pins the measurement the scheduler's
// design leans on (EXPERIMENTS.md, "Scheduler class shares", which this
// test's -v output reproduces): whole cells schedule nothing due-now
// and nothing a wheel horizon (512 cycles) or more away, so the
// overflow heap sees no hot traffic. A latency that grows past the
// horizon fails here instead of silently moving events onto the heap.
// An auditor cadence of 512 is the one known far-future source and
// proves the counter counts.
func TestWheelHoldsAllCellTraffic(t *testing.T) {
	run := func(t *testing.T, bench string, m config.Mechanism, ops int, audit uint64) *System {
		b, ok := workload.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %q", bench)
		}
		if testing.Short() {
			ops /= 10 // `make race`; the table in EXPERIMENTS.md is the full scale
		}
		cfg := config.Default().WithMechanism(m).WithCores(b.Threads)
		cfg.Reference = false // on the reference engine every event overflows
		sys, err := New(cfg, b.Streams(1, ops))
		if err != nil {
			t.Fatal(err)
		}
		if audit > 0 {
			sys.SetAuditor(nopAuditor{}, audit)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s/%v x%d @%d uops: %d events scheduled, %d overflowed",
			bench, m, cfg.Cores, ops, sys.Q.Scheduled(), sys.Q.Overflowed())
		return sys
	}
	for _, tc := range []struct {
		bench string
		m     config.Mechanism
		ops   int
	}{
		{"502.gcc2", config.TUS, 150000},
		{"502.gcc2", config.Baseline, 150000},
		{"505.mcf", config.TUS, 50000},
		{"tf.embed", config.TUS, 50000},
		{"dedup", config.TUS, 12000},
		{"canneal", config.Baseline, 12000},
	} {
		if n := run(t, tc.bench, tc.m, tc.ops, 0).Q.Overflowed(); n != 0 {
			t.Errorf("%s/%v: %d events overflowed the wheel, want 0", tc.bench, tc.m, n)
		}
	}
	if run(t, "502.gcc2", config.TUS, 2000, 512).Q.Overflowed() == 0 {
		t.Error("audited run (cadence 512): Overflowed() = 0, want the auditor's far-future ticks")
	}
}

// cadenceAuditor records the cycle of every audit and fails the failOn-th.
type cadenceAuditor struct {
	at     []uint64
	failOn int
}

func (a *cadenceAuditor) Audit(cycle uint64) *faults.ProtocolError {
	a.at = append(a.at, cycle)
	if len(a.at) == a.failOn {
		return faults.Violationf("audit", -1, 0, "test-tick", "tick %d", len(a.at))
	}
	return nil
}

// TestWheelAuditorCadence pins the auditor's self-rescheduling event on
// both engines at a cadence longer than the wheel span (so every tick
// rides the overflow heap): audits land at k*period, a failing audit
// stops the series, and Run reports CrashAudit on the failing tick's
// cycle.
func TestWheelAuditorCadence(t *testing.T) {
	const period = 2*512 + 13
	b, _ := workload.ByName("505.mcf")
	for _, ref := range []bool{false, true} {
		cfg := config.Default()
		cfg.Reference = ref
		sys, err := New(cfg, b.Streams(1, 50000))
		if err != nil {
			t.Fatal(err)
		}
		a := &cadenceAuditor{failOn: 5}
		sys.SetAuditor(a, period)
		var cr *CrashReport
		if err := sys.Run(); !errors.As(err, &cr) || cr.Kind != CrashAudit {
			t.Fatalf("ref=%v: Run = %v, want an audit crash", ref, err)
		}
		if want := "[1037 2074 3111 4148 5185]"; fmt.Sprint(a.at) != want {
			t.Errorf("ref=%v: audits at %v, want %s", ref, a.at, want)
		}
		if cr.Cycle != 5*period {
			t.Errorf("ref=%v: crash at cycle %d, want %d", ref, cr.Cycle, 5*period)
		}
		// The audit is an event, so it bounds the run loop's idle skip.
		if !ref && sys.skipped == 0 {
			t.Error("the fast machine skipped no cycle, so no skip met an audit")
		}
	}
}
