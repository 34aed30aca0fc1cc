package mech

import (
	"fmt"
	"strings"
	"testing"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/stats"
)

// rig builds a single core with the given mechanism constructor.
type rig struct {
	q    *event.Queue
	core *cpu.Core
	mech cpu.DrainMechanism
	st   *stats.Set
	mem  *memsys.Memory
	dir  *memsys.Directory
	priv *memsys.Private
}

func newRig(t *testing.T, ops []isa.MicroOp, mechName string, mut func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default()
	cfg.StreamPrefetcher = false
	if mut != nil {
		mut(cfg)
	}
	q := event.NewQueueRef(cfg.Reference)
	mem := memsys.NewMemory()
	st := stats.NewSet("t")
	dram := memsys.NewDRAM(q, cfg.DRAMLatency, cfg.DRAMMaxInFlight)
	dir := memsys.NewDirectory(cfg, q, mem, dram, st)
	priv := memsys.NewPrivate(0, cfg, q, dir, st)
	dir.Attach([]*memsys.Private{priv})
	core := cpu.NewCore(0, cfg, q, priv, isa.NewSliceStream(ops), st)
	var m cpu.DrainMechanism
	switch mechName {
	case "base":
		m = NewBase(core, st)
	case "ssb":
		m = NewSSB(core, cfg, q, st)
	case "csb":
		m = NewCSB(core, cfg, st)
	default:
		t.Fatalf("unknown mech %q", mechName)
	}
	core.SetMechanism(m)
	return &rig{q: q, core: core, mech: m, st: st, mem: mem, dir: dir, priv: priv}
}

func (r *rig) run(t *testing.T, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if r.core.Done() {
			return
		}
		r.q.Advance()
		r.core.Tick()
	}
	t.Fatalf("did not finish in %d cycles", maxCycles)
}

func storeTrace(addrs ...uint64) []isa.MicroOp {
	var ops []isa.MicroOp
	for _, a := range addrs {
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: a, Size: 8})
	}
	return ops
}

// ---------- Baseline ----------

func TestBaseDrainsInOrder(t *testing.T) {
	r := newRig(t, storeTrace(0x5000, 0x1000, 0x9000), "base", nil)
	var order []uint64
	r.priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		order = append(order, line)
	}
	r.run(t, 1_000_000)
	want := []uint64{0x5000, 0x1000, 0x9000}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %#v, want %#v", order, want)
		}
	}
}

func TestBaseBlocksOnMiss(t *testing.T) {
	// Without prefetch-at-commit, each cold store blocks the drain for
	// a full miss round trip.
	r := newRig(t, storeTrace(0x1000, 0x2000), "base", func(c *config.Config) {
		c.PrefetchAtCommit = false
	})
	r.run(t, 1_000_000)
	if r.st.Get("drain_blocked_cycles") < 100 {
		t.Fatalf("drain_blocked_cycles = %d; cold stores should block the baseline drain",
			r.st.Get("drain_blocked_cycles"))
	}
}

func TestBaseWritesCorrectData(t *testing.T) {
	r := newRig(t, storeTrace(0x1000), "base", nil)
	r.run(t, 1_000_000)
	pl := r.priv.Lookup(0x1000)
	want := cpu.StoreValue(0, 0)
	for i := 0; i < 8; i++ {
		if pl.L1Data[i] != want[i] {
			t.Fatalf("L1 data %v, want %v", pl.L1Data[:8], want)
		}
	}
}

// ---------- SSB ----------

func TestSSBAbsorbsBurstIntoTSOB(t *testing.T) {
	// 200 cold stores: the SB must never fill (store-wait-free), with
	// the backlog absorbed by the TSOB.
	var addrs []uint64
	for i := 0; i < 200; i++ {
		addrs = append(addrs, 0x10000+uint64(i)*64)
	}
	r := newRig(t, storeTrace(addrs...), "ssb", nil)
	r.run(t, 2_000_000)
	if r.st.Get("stall_sb") != 0 {
		t.Fatalf("SSB had %d SB stalls; the TSOB should absorb the burst", r.st.Get("stall_sb"))
	}
	if r.st.Get("tsob_peak_occupancy") == 0 {
		t.Fatal("TSOB never used")
	}
	if r.st.Get("ssb_llc_writes") != 200 {
		t.Fatalf("ssb_llc_writes = %d, want 200 (one shared-cache write per store)",
			r.st.Get("ssb_llc_writes"))
	}
}

func TestSSBForwardsFromTSOB(t *testing.T) {
	ops := storeTrace(0x1000)
	// Pad so the store reaches the TSOB before the load issues.
	for i := 0; i < 40; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.IntAdd, Dep1: 1})
	}
	ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: 0x1000, Size: 8, Dep1: 1})
	r := newRig(t, ops, "ssb", func(c *config.Config) { c.PrefetchAtCommit = false })
	var got [8]byte
	r.core.OnLoadValue = func(core int, seq, addr uint64, size uint8, v [8]byte) { got = v }
	r.run(t, 1_000_000)
	if got != cpu.StoreValue(0, 0) {
		t.Fatalf("load = %v, want TSOB-forwarded store value", got)
	}
}

func TestSSBDrainsInOrder(t *testing.T) {
	r := newRig(t, storeTrace(0x9000, 0x1000, 0x5000), "ssb", nil)
	var order []uint64
	r.priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		order = append(order, line)
	}
	r.run(t, 1_000_000)
	want := []uint64{0x9000, 0x1000, 0x5000}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %#v, want %#v", order, want)
		}
	}
}

// TestSSBLookaheadSkipLockstep: SSB skips its drain-lookahead walk while
// the TSOB and the private's permission epoch stand still; the reference
// machine walks every cycle. With prefetch-at-commit off the walk is the
// only source of ahead-of-head RFOs, and with four MSHRs most of its
// requests are refused and must be retried the cycle an MSHR frees — so
// a skipped walk that mattered shows at once. The two machines are
// stepped together and must agree every cycle on the MSHR table, the
// TSOB and commit progress, fault-free and with an injector that refuses
// MSHRs at random (each query consumes a decision: skipping a walk that
// would have asked desynchronizes the two streams) and NACKs requests at
// random (a NACKed lookahead request frees its MSHR with no line changing
// state).
func TestSSBLookaheadSkipLockstep(t *testing.T) {
	var ops []isa.MicroOp
	for i := uint64(0); i < 400; i++ {
		// Runs of one to four stores per line over 90 lines, revisited.
		line := 0x40000 + (i/(1+i%4)*7%90)*64
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: line + i%8*8, Size: 8})
		if i%9 == 0 {
			// A load miss to a line the TSOB will reach: the walk upgrades
			// the read MSHR it finds.
			ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: 0x40000 + (i*5%90)*64, Size: 8})
		}
	}
	for _, pressure := range []int{0, 30} {
		build := func(ref bool) *rig {
			r := newRig(t, ops, "ssb", func(c *config.Config) {
				c.PrefetchAtCommit = false
				c.L1D.MSHRs = 4
				c.Reference = ref
			})
			if pressure > 0 {
				in := faults.NewInjector(faults.Plan{Seed: 11, MSHRPressurePct: pressure, NackPct: 20})
				r.priv.SetFaults(in)
				r.dir.SetFaults(in)
			}
			return r
		}
		state := func(r *rig) string {
			var b strings.Builder
			fmt.Fprintf(&b, "committed %d tsob %+v mshrs", r.core.Committed(), r.mech.(*SSB).AuditTSOB())
			r.priv.AuditMSHRs(func(line, born uint64, wantM, _ bool) { fmt.Fprintf(&b, " %#x@%d/%v", line, born, wantM) })
			return b.String()
		}
		fast, ref := build(false), build(true)
		for cycle := 0; !fast.core.Done() || !ref.core.Done(); cycle++ {
			if cycle > 1_000_000 {
				t.Fatalf("pressure %d%%: not finished after %d cycles", pressure, cycle)
			}
			for _, r := range []*rig{fast, ref} {
				r.q.Advance()
				r.core.Tick()
			}
			if f, r := state(fast), state(ref); f != r {
				t.Fatalf("pressure %d%%, cycle %d:\nskipping:  %s\nreference: %s", pressure, cycle, f, r)
			}
		}
		if f, r := fast.st.String(), ref.st.String(); f != r {
			t.Fatalf("pressure %d%%: statistics differ:\nskipping:\n%s\nreference:\n%s", pressure, f, r)
		}
		if fast.st.Get("l2_misses") < 90 || fast.st.Get("drain_blocked_cycles") == 0 {
			t.Fatalf("pressure %d%%: %d misses, %d blocked cycles: the trace no longer stresses the lookahead",
				pressure, fast.st.Get("l2_misses"), fast.st.Get("drain_blocked_cycles"))
		}
	}
}

// ---------- CSB ----------

func TestCSBCoalescesBeforeWriting(t *testing.T) {
	// Four stores to one line + four to another: two L1D line writes.
	r := newRig(t, storeTrace(0x1000, 0x1008, 0x1010, 0x1018, 0x2000, 0x2008, 0x2010, 0x2018),
		"csb", nil)
	r.run(t, 1_000_000)
	if w := r.st.Get("l1d_writes"); w != 2 {
		t.Fatalf("l1d_writes = %d, want 2 (coalesced)", w)
	}
	if r.st.Get("csb_group_writes") == 0 {
		t.Fatal("no group writes recorded")
	}
}

func TestCSBGroupAtomicity(t *testing.T) {
	// An A,B,A cycle forms an atomic group: both lines must publish in
	// the same cycle.
	r := newRig(t, storeTrace(0x1000, 0x2000, 0x1008, 0x3000), "csb", nil)
	pubCycle := map[uint64]uint64{}
	r.priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		pubCycle[line] = r.q.Now()
	}
	r.run(t, 1_000_000)
	if pubCycle[0x1000] != pubCycle[0x2000] {
		t.Fatalf("atomic group published at %d and %d", pubCycle[0x1000], pubCycle[0x2000])
	}
}

func TestCSBRequiresPermissionBeforeWrite(t *testing.T) {
	// Unlike TUS, CSB may not write the L1D before the line is
	// writable: at every visible write the line must hold E/M.
	r := newRig(t, storeTrace(0x1000, 0x2000, 0x3000), "csb", nil)
	r.priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		if !r.priv.Writable(line) {
			t.Fatalf("CSB published line %#x without permission", line)
		}
		if pl := r.priv.Lookup(line); pl.NotVisible {
			t.Fatalf("CSB line %#x is not-visible; only TUS uses that state", line)
		}
	}
	r.run(t, 1_000_000)
}

func TestCSBFenceFlushes(t *testing.T) {
	ops := storeTrace(0x1000)
	ops = append(ops, isa.MicroOp{Kind: isa.Fence})
	ops = append(ops, storeTrace(0x2000)...)
	r := newRig(t, ops, "csb", nil)
	pubs := 0
	r.priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) { pubs++ }
	r.run(t, 1_000_000)
	if pubs != 2 {
		t.Fatalf("published %d lines, want 2", pubs)
	}
}
