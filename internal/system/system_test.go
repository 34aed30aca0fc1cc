package system

import (
	"context"
	"errors"
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/tso"
	"tusim/internal/workload"
)

// runChecked builds a system, attaches the TSO checker, runs to
// completion, and fails the test on any consistency violation.
func runChecked(t *testing.T, cfg *config.Config, streams []isa.Stream) (*System, *tso.Checker) {
	t.Helper()
	sys, err := New(cfg, streams)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ck := tso.NewChecker(cfg.Cores)
	sys.SetObserver(ck)
	if err := sys.Run(); err != nil {
		t.Fatalf("[%v] Run: %v", cfg.Mechanism, err)
	}
	ck.Finish()
	if err := ck.Err(); err != nil {
		for _, v := range ck.Violations()[:min(5, len(ck.Violations()))] {
			t.Logf("  %v", v)
		}
		t.Fatalf("[%v] %v", cfg.Mechanism, err)
	}
	return sys, ck
}

// mixedTrace builds a small single-core trace exercising every op kind.
func mixedTrace(n int) []isa.MicroOp {
	b, _ := workload.ByName("502.gcc2")
	return b.Generate(7, n)[0]
}

func TestSingleCoreAllMechanisms(t *testing.T) {
	trace := mixedTrace(8000)
	for _, m := range config.Mechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m)
			sys, ck := runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(trace)})
			if got := sys.TotalCommitted(); got != 8000 {
				t.Fatalf("committed %d ops, want 8000", got)
			}
			if ck.LoadsSeen == 0 || ck.Published == 0 {
				t.Fatalf("checker saw loads=%d published=%d; observer not wired", ck.LoadsSeen, ck.Published)
			}
			if sys.Cycles == 0 {
				t.Fatal("zero cycles")
			}
		})
	}
}

func TestSingleCorePointerChaseAllMechanisms(t *testing.T) {
	b, _ := workload.ByName("505.mcf")
	trace := b.Generate(3, 6000)[0]
	for _, m := range config.Mechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m)
			sys, _ := runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(trace)})
			if got := sys.TotalCommitted(); got != 6000 {
				t.Fatalf("committed %d ops, want 6000", got)
			}
		})
	}
}

func TestFenceWorkloadAllMechanisms(t *testing.T) {
	b, _ := workload.ByName("fluidanimate")
	traces := b.Generate(5, 4000)
	// Use just the first trace single-core (it contains fences).
	hasFence := false
	for _, op := range traces[0] {
		if op.Kind == isa.Fence {
			hasFence = true
		}
	}
	if !hasFence {
		t.Skip("no fences generated at this length")
	}
	for _, m := range config.Mechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m)
			runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(traces[0])})
		})
	}
}

func TestMultiCoreSharingAllMechanisms(t *testing.T) {
	b, _ := workload.ByName("canneal")
	for _, m := range config.Mechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m).WithCores(4)
			traces := b.Generate(11, 2500)[:4]
			streams := make([]isa.Stream, 4)
			for i := range streams {
				streams[i] = isa.NewSliceStream(traces[i])
			}
			sys, ck := runChecked(t, cfg, streams)
			if got := sys.TotalCommitted(); got != 4*2500 {
				t.Fatalf("committed %d, want %d", got, 4*2500)
			}
			_ = ck
		})
	}
}

// TestTUSContention drives heavy same-line contention across cores to
// exercise the authorization unit (delays and relinquishes) under the
// checker's eye.
func TestTUSContention(t *testing.T) {
	const cores = 4
	cfg := config.Default().WithMechanism(config.TUS).WithCores(cores)
	streams := make([]isa.Stream, cores)
	for c := 0; c < cores; c++ {
		var ops []isa.MicroOp
		// All cores hammer the same handful of shared lines with
		// interleaved ABAB patterns (atomic-group cycles) plus private
		// traffic.
		for i := 0; i < 1500; i++ {
			shared := uint64(1)<<33 + uint64(i%6)*64
			priv := uint64(1)<<32 + uint64(c)<<28 + uint64(i%64)*64
			switch i % 5 {
			case 0, 1:
				ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: shared + uint64(c)*8, Size: 8})
			case 2:
				ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: shared, Size: 8})
			case 3:
				ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: priv, Size: 8})
			case 4:
				ops = append(ops, isa.MicroOp{Kind: isa.IntAdd})
			}
		}
		streams[c] = isa.NewSliceStream(ops)
	}
	sys, _ := runChecked(t, cfg, streams)
	tot := sys.StatsSum()
	if tot.Get("tus_lines_made_visible") == 0 {
		t.Fatal("TUS never made lines visible")
	}
	if tot.Get("tus_lex_delays")+tot.Get("tus_lex_relinquishes") == 0 {
		t.Log("warning: contention test exercised no authorization-unit decisions")
	}
}

// TestCoherentViewMatchesChecker cross-validates the machine's final
// coherent memory against the checker's golden memory.
func TestCoherentViewMatchesChecker(t *testing.T) {
	b, _ := workload.ByName("502.gcc1")
	trace := b.Generate(21, 4000)[0]
	for _, m := range config.Mechanisms {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := config.Default().WithMechanism(m)
			sys, ck := runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(trace)})
			checked := 0
			for _, op := range trace {
				if op.Kind != isa.Store {
					continue
				}
				for i := uint64(0); i < uint64(op.Size); i++ {
					a := op.Addr + i
					want := ck.VisibleByte(a)
					got := sys.ReadCoherent(a)
					if got != want {
						t.Fatalf("addr %#x: machine=%#x checker=%#x", a, got, want)
					}
					checked++
				}
				if checked > 4000 {
					break
				}
			}
		})
	}
}

// TestTUSBeatsBaselineOnBursts is the headline sanity check: on a
// store-burst workload TUS must not be slower than the baseline.
func TestTUSBeatsBaselineOnBursts(t *testing.T) {
	b, _ := workload.ByName("502.gcc5")
	trace := b.Generate(2, 12000)[0]
	cycles := map[config.Mechanism]uint64{}
	for _, m := range []config.Mechanism{config.Baseline, config.TUS} {
		cfg := config.Default().WithMechanism(m)
		sys, _ := runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(trace)})
		cycles[m] = sys.Cycles
	}
	if cycles[config.TUS] > cycles[config.Baseline] {
		t.Fatalf("TUS slower than baseline on store bursts: %d vs %d", cycles[config.TUS], cycles[config.Baseline])
	}
	t.Logf("burst workload: base=%d TUS=%d (%.1f%% speedup)", cycles[config.Baseline], cycles[config.TUS],
		100*(float64(cycles[config.Baseline])/float64(cycles[config.TUS])-1))
}

func TestSmallSBStillCorrect(t *testing.T) {
	trace := mixedTrace(5000)
	for _, m := range config.Mechanisms {
		cfg := config.Default().WithMechanism(m).WithSB(8)
		sys, _ := runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(trace)})
		if sys.TotalCommitted() != 5000 {
			t.Fatalf("[%v] committed %d", m, sys.TotalCommitted())
		}
	}
}

func TestStatsSanity(t *testing.T) {
	trace := mixedTrace(5000)
	cfg := config.Default().WithMechanism(config.TUS)
	sys, _ := runChecked(t, cfg, []isa.Stream{isa.NewSliceStream(trace)})
	st := sys.StatsSum()
	if st.Get("sb_searches") != st.Get("loads")+st.Get("sb_forward_conflicts")*0 && st.Get("sb_searches") < st.Get("loads") {
		t.Errorf("sb_searches (%d) < loads (%d): every load must search the SB", st.Get("sb_searches"), st.Get("loads"))
	}
	if st.Get("stores_drained") == 0 {
		t.Error("no stores drained")
	}
	if st.Get("l1d_writes") == 0 {
		t.Error("no L1D writes recorded")
	}
	if st.Get("tus_lines_made_visible") == 0 {
		t.Error("TUS made nothing visible")
	}
	// Coalescing must reduce L1D writes below the store count.
	if st.Get("l1d_writes") >= st.Get("stores") {
		t.Logf("note: l1d_writes=%d stores=%d (little coalescing on this trace)", st.Get("l1d_writes"), st.Get("stores"))
	}
}

// cancelAt is an Observer that cancels a run's context at its nth
// committed store and records the cycle it did so.
type cancelAt struct {
	n      int
	sys    *System
	cancel context.CancelCauseFunc
	cause  error
	cycle  uint64
}

func (o *cancelAt) StoreExecuted(int, uint64, uint64, uint8, [8]byte)               {}
func (o *cancelAt) StoreVisible(int, uint64, uint64, memsys.Mask, *memsys.LineData) {}
func (o *cancelAt) LoadBound(int, uint64, uint64, uint64, uint8, [8]byte)           {}
func (o *cancelAt) StoreCommitted(int, uint64, uint64, uint8, [8]byte) {
	if o.n--; o.n == 0 {
		o.cycle = o.sys.Q.Now()
		o.cancel(o.cause)
	}
}

// TestRunStopsOnContext: Run returns its context's cause at most ctxPoll
// cycles after the context ends, and a run whose context stays live is
// the nil-context run: same cycles, same scheduled events, same stats.
func TestRunStopsOnContext(t *testing.T) {
	b, _ := workload.ByName("505.mcf")
	const ops = 20_000
	run := func(setup func(*System)) (*System, error) {
		sys, err := New(config.Default(), b.Streams(1, ops))
		if err != nil {
			t.Fatal(err)
		}
		sys.WarmupOps = ops / 3
		setup(sys)
		return sys, sys.Run()
	}

	ref, err := run(func(*System) {})
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := run(func(s *System) { s.SetContext(live) })
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != ref.Cycles || got.Q.Scheduled() != ref.Q.Scheduled() ||
		got.StatsSum().String() != ref.StatsSum().String() {
		t.Fatalf("live context: cycles %d scheduled %d, nil context: cycles %d scheduled %d (or stats differ)",
			got.Cycles, got.Q.Scheduled(), ref.Cycles, ref.Q.Scheduled())
	}

	ctx, stop := context.WithCancelCause(context.Background())
	o := &cancelAt{n: 500, cancel: stop, cause: errors.New("stop here")}
	sys, err := run(func(s *System) {
		o.sys = s
		s.SetObserver(o)
		s.SetContext(ctx)
	})
	if err != o.cause {
		t.Fatalf("Run = %v, want the context's cause %v", err, o.cause)
	}
	if o.cycle == 0 || sys.Q.Now() > o.cycle+ctxPoll {
		t.Fatalf("canceled at cycle %d, stopped at %d: more than %d cycles late", o.cycle, sys.Q.Now(), ctxPoll)
	}

	// A cancel in the middle of a long idle wait (one load's DRAM miss):
	// the fast machine's skip stops at each multiple of ctxPoll, so it
	// stops where the reference machine does, at the first multiple
	// after the cancel, and not when the miss returns.
	for _, ref := range []bool{false, true} {
		cfg := config.Default()
		cfg.DRAMLatency = 4 * ctxPoll
		cfg.Reference = ref
		sys, err := New(cfg, stallTrace())
		if err != nil {
			t.Fatal(err)
		}
		ctx, stop := context.WithCancelCause(context.Background())
		a := &cancelAudit{stop: stop, cause: errors.New("stop in the wait")}
		sys.SetContext(ctx)
		sys.SetAuditor(a, ctxPoll+ctxPoll/2)
		if err := sys.Run(); err != a.cause || sys.Q.Now() != 2*ctxPoll {
			t.Errorf("reference=%v: Run = %v at cycle %d, want %v at cycle %d", ref, err, sys.Q.Now(), a.cause, 2*ctxPoll)
		}
		if !ref && sys.skipped < ctxPoll/2 {
			t.Errorf("fast machine skipped %d cycles of the wait", sys.skipped)
		}
	}
}

// cancelAudit is an Auditor that cancels its context at the first audit.
type cancelAudit struct {
	stop  context.CancelCauseFunc
	cause error
}

func (a *cancelAudit) Audit(uint64) *faults.ProtocolError {
	a.stop(a.cause)
	return nil
}
