package system

import (
	"math/rand"
	"testing"

	"tusim/internal/config"
	"tusim/internal/isa"
	"tusim/internal/tso"
)

// stressTrace builds an adversarial random trace: heavy same-line
// sharing, store cycles, fences, tiny footprints, and pathological
// interleavings — everything that breaks coherence protocols.
func stressTrace(rng *rand.Rand, core, n int, sharedLines, privLines int) []isa.MicroOp {
	var ops []isa.MicroOp
	for i := 0; i < n; i++ {
		var addr uint64
		if rng.Intn(100) < 60 {
			addr = uint64(1)<<33 + uint64(rng.Intn(sharedLines))*64
		} else {
			addr = uint64(1)<<32 + uint64(core)<<28 + uint64(rng.Intn(privLines))*64
		}
		addr += uint64(rng.Intn(8)) * 8
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: addr, Size: 8})
		case 4, 5, 6:
			ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: addr, Size: 8})
		case 7:
			ops = append(ops, isa.MicroOp{Kind: isa.Fence})
		case 8:
			ops = append(ops, isa.MicroOp{Kind: isa.IntAdd, Dep1: uint16(min(i, 1+rng.Intn(3)))})
		case 9:
			// 1/2/4-byte stores exercise partial masks and forwarding
			// conflicts.
			size := uint8(1) << rng.Intn(3)
			ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: addr &^ 7, Size: size})
		}
	}
	return ops
}

// TestStressRandomized runs adversarial random workloads under every
// mechanism and configuration corner with the TSO checker attached.
// Any deadlock, livelock, or consistency violation fails the test.
func TestStressRandomized(t *testing.T) {
	type corner struct {
		name string
		mut  func(*config.Config)
	}
	corners := []corner{
		{"default", func(c *config.Config) {}},
		{"tinySB", func(c *config.Config) { c.SBEntries = 4 }},
		{"tinyWOQ", func(c *config.Config) { c.WOQEntries = 4 }},
		{"tinyL1", func(c *config.Config) { c.L1D.SizeBytes = 4 * 64 * 2; c.L1D.Ways = 2 }},
		{"oneWCB", func(c *config.Config) { c.WCBCount = 1 }},
		{"smallGroup", func(c *config.Config) { c.MaxAtomicGroup = 2 }},
	}
	for _, m := range config.Mechanisms {
		for _, co := range corners {
			m, co := m, co
			t.Run(m.String()+"/"+co.name, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 3; seed++ {
					const cores = 3
					cfg := config.Default().WithMechanism(m).WithCores(cores)
					co.mut(cfg)
					if err := cfg.Validate(); err != nil {
						t.Skipf("corner invalid for %v: %v", m, err)
					}
					rng := rand.New(rand.NewSource(seed * 7919))
					streams := make([]isa.Stream, cores)
					total := 0
					for c := 0; c < cores; c++ {
						tr := stressTrace(rng, c, 900, 5, 12)
						if err := isa.Validate(tr); err != nil {
							t.Fatal(err)
						}
						total += len(tr)
						streams[c] = isa.NewSliceStream(tr)
					}
					sys, err := New(cfg, streams)
					if err != nil {
						t.Fatal(err)
					}
					ck := tso.NewChecker(cores)
					sys.SetObserver(ck)
					if err := sys.Run(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if got := sys.TotalCommitted(); got != uint64(total) {
						t.Fatalf("seed %d: committed %d/%d", seed, got, total)
					}
					ck.Finish()
					if err := ck.Err(); err != nil {
						for _, v := range ck.Violations()[:min(3, len(ck.Violations()))] {
							t.Logf("  %v", v)
						}
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})
		}
	}
}

// TestStressManyCores pushes the TUS protocol across 8 cores with a
// single hot line plus cold private misses holding WOQ heads back —
// the worst case for the lex-order authorization unit.
func TestStressManyCores(t *testing.T) {
	const cores = 8
	cfg := config.Default().WithMechanism(config.TUS).WithCores(cores)
	streams := make([]isa.Stream, cores)
	for c := 0; c < cores; c++ {
		var ops []isa.MicroOp
		for i := 0; i < 800; i++ {
			cold := uint64(1)<<32 + uint64(c)<<28 + uint64(i)*64
			hot := uint64(1) << 33
			ops = append(ops,
				isa.MicroOp{Kind: isa.Store, Addr: cold, Size: 8},
				isa.MicroOp{Kind: isa.Store, Addr: hot + uint64(c)*8, Size: 8},
				isa.MicroOp{Kind: isa.Load, Addr: hot, Size: 8},
			)
		}
		streams[c] = isa.NewSliceStream(ops)
	}
	sys, err := New(cfg, streams)
	if err != nil {
		t.Fatal(err)
	}
	ck := tso.NewChecker(cores)
	sys.SetObserver(ck)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	ck.Finish()
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
	st := sys.StatsSum()
	if st.Get("tus_lex_delays")+st.Get("tus_lex_relinquishes") == 0 {
		t.Error("8-way hot-line contention never exercised the authorization unit")
	}
}

// TestTUSAdmissionCountsResidentGroupLines crowds one L1 set and one L2
// set with a few lines under random loads and stores. A TUS group whose
// lines are partly resident and authorized (so unpinned) must count
// those lines as ways its commit will pin: the commit writes each of
// them not visible, and allocating a missing line may first evict one.
// An admission that counts only the missing lines crashes the machine
// with the admission-checked invariant.
func TestTUSAdmissionCountsResidentGroupLines(t *testing.T) {
	const l2Sets, lines = 4, 6
	cfg := config.Default().WithMechanism(config.TUS)
	cfg.StreamPrefetcher = false
	cfg.L1D.SizeBytes, cfg.L1D.Ways = 2*2*64, 2
	cfg.L2.SizeBytes, cfg.L2.Ways = l2Sets*2*64, 2
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]isa.MicroOp, 600)
		for i := range ops {
			addr := uint64(1)<<30 + uint64(rng.Intn(lines))*l2Sets*64
			ops[i] = isa.MicroOp{Kind: isa.Load, Addr: addr, Size: 8}
			if rng.Intn(2) == 0 {
				ops[i].Kind = isa.Store
			}
		}
		sys, err := New(cfg, []isa.Stream{isa.NewSliceStream(ops)})
		if err != nil {
			t.Fatal(err)
		}
		ck := tso.NewChecker(1)
		sys.SetObserver(ck)
		if err := sys.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ck.Finish()
		if err := ck.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
