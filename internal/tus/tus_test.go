package tus

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/event"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/stats"
)

// rig wires N TUS cores through a directory for protocol-level tests.
type rig struct {
	cfg   *config.Config
	q     *event.Queue
	mem   *memsys.Memory
	dir   *memsys.Directory
	cores []*cpu.Core
	tus   []*TUS
	sts   []*stats.Set
}

func newRig(t *testing.T, cores int, traces [][]isa.MicroOp, mut func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default().WithMechanism(config.TUS).WithCores(cores)
	cfg.StreamPrefetcher = false
	if mut != nil {
		mut(cfg)
	}
	q := event.NewQueueRef(cfg.Reference)
	mem := memsys.NewMemory()
	sysSt := stats.NewSet("sys")
	dram := memsys.NewDRAM(q, cfg.DRAMLatency, cfg.DRAMMaxInFlight)
	dir := memsys.NewDirectory(cfg, q, mem, dram, sysSt)
	r := &rig{cfg: cfg, q: q, mem: mem, dir: dir}
	var privs []*memsys.Private
	for i := 0; i < cores; i++ {
		st := stats.NewSet("c")
		priv := memsys.NewPrivate(i, cfg, q, dir, st)
		core := cpu.NewCore(i, cfg, q, priv, isa.NewSliceStream(traces[i]), st)
		m := New(core, cfg, q, st)
		core.SetMechanism(m)
		privs = append(privs, priv)
		r.cores = append(r.cores, core)
		r.tus = append(r.tus, m)
		r.sts = append(r.sts, st)
	}
	dir.Attach(privs)
	return r
}

func (r *rig) run(t *testing.T, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		done := true
		for _, c := range r.cores {
			if !c.Done() {
				done = false
			}
		}
		if done {
			return
		}
		r.q.Advance()
		for _, c := range r.cores {
			c.Tick()
		}
	}
	t.Fatalf("rig did not finish in %d cycles", maxCycles)
}

func stores(addrs ...uint64) []isa.MicroOp {
	var ops []isa.MicroOp
	for _, a := range addrs {
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: a, Size: 8})
	}
	return ops
}

func TestTUSDrainsAndPublishes(t *testing.T) {
	r := newRig(t, 1, [][]isa.MicroOp{stores(0x1000, 0x2000, 0x3000)}, nil)
	r.run(t, 1_000_000)
	st := r.sts[0]
	if st.Get("tus_lines_made_visible") != 3 {
		t.Fatalf("lines visible = %d, want 3", st.Get("tus_lines_made_visible"))
	}
	if len(r.tus[0].woq) != 0 {
		t.Fatalf("WOQ not empty at end: %d", len(r.tus[0].woq))
	}
	if !r.tus[0].Drained() || !r.tus[0].FlushDone() {
		t.Fatal("Drained/FlushDone false after completion")
	}
}

func TestTUSCoalescesSameLine(t *testing.T) {
	// Four stores to one line become one WOQ entry / one visible line.
	r := newRig(t, 1, [][]isa.MicroOp{stores(0x1000, 0x1008, 0x1010, 0x1018)}, nil)
	r.run(t, 1_000_000)
	st := r.sts[0]
	if st.Get("tus_lines_made_visible") != 1 {
		t.Fatalf("visible lines = %d, want 1 (coalesced)", st.Get("tus_lines_made_visible"))
	}
	if st.Get("l1d_writes") >= 4 {
		t.Fatalf("l1d_writes = %d; coalescing should reduce writes", st.Get("l1d_writes"))
	}
}

func TestTUSVisibilityRespectsProgramOrder(t *testing.T) {
	// Distinct lines: visibility events must follow program order.
	addrs := []uint64{0x5000, 0x1000, 0x9000, 0x3000, 0x7000}
	r := newRig(t, 1, [][]isa.MicroOp{stores(addrs...)}, nil)
	var order []uint64
	r.cores[0].Priv().OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		order = append(order, line)
	}
	r.run(t, 1_000_000)
	if len(order) != len(addrs) {
		t.Fatalf("published %d lines, want %d", len(order), len(addrs))
	}
	for i, a := range addrs {
		if order[i] != a&^63 {
			t.Fatalf("publication order %v, want program order %v", order, addrs)
		}
	}
}

func TestTUSStoreCycleFormsAtomicGroup(t *testing.T) {
	// A, B, A with only 2 WCBs: the third store cycles back to line A
	// while B occupies the other buffer -> WCB-level atomic group ->
	// both lines publish in the same cycle.
	r := newRig(t, 1, [][]isa.MicroOp{stores(0x1000, 0x2000, 0x1008, 0x2008, 0x1010, 0x3000)}, nil)
	type pub struct {
		line  uint64
		cycle uint64
	}
	var pubs []pub
	r.cores[0].Priv().OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		pubs = append(pubs, pub{line, r.q.Now()})
	}
	r.run(t, 1_000_000)
	cycleOf := map[uint64]uint64{}
	for _, p := range pubs {
		cycleOf[p.line] = p.cycle
	}
	if cycleOf[0x1000] != cycleOf[0x2000] {
		t.Fatalf("cycle-merged lines published at %d and %d; must be atomic",
			cycleOf[0x1000], cycleOf[0x2000])
	}
}

func TestTUSWOQCapacityRespected(t *testing.T) {
	// More distinct cold lines in flight than WOQ entries: peak must
	// never exceed the configured size and the run must still finish.
	var addrs []uint64
	for i := 0; i < 200; i++ {
		addrs = append(addrs, 0x100000+uint64(i)*64)
	}
	r := newRig(t, 1, [][]isa.MicroOp{stores(addrs...)}, func(c *config.Config) { c.WOQEntries = 8 })
	r.run(t, 2_000_000)
	if peak := r.sts[0].Get("woq_peak_occupancy"); peak > 8 {
		t.Fatalf("WOQ peak %d exceeds capacity 8", peak)
	}
	if r.sts[0].Get("tus_lines_made_visible") != 200 {
		t.Fatalf("visible = %d", r.sts[0].Get("tus_lines_made_visible"))
	}
}

func TestTUSMaxAtomicGroupRespected(t *testing.T) {
	// Interleave stores across 3 lines repeatedly (constant cycling);
	// group size must stay within MaxAtomicGroup and the run finishes.
	var ops []isa.MicroOp
	for i := 0; i < 60; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: uint64(i%3)*4096 + uint64(i/3%8)*8, Size: 8})
	}
	r := newRig(t, 1, [][]isa.MicroOp{ops}, func(c *config.Config) { c.MaxAtomicGroup = 4 })
	r.run(t, 2_000_000)
	if r.sts[0].Get("tus_lines_made_visible") == 0 {
		t.Fatal("nothing published")
	}
}

func TestTUSFenceFlushesWOQ(t *testing.T) {
	ops := append(stores(0x1000, 0x2000), isa.MicroOp{Kind: isa.Fence})
	ops = append(ops, stores(0x3000)...)
	r := newRig(t, 1, [][]isa.MicroOp{ops}, nil)
	var events []string
	r.cores[0].Priv().OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		events = append(events, "pub")
	}
	r.run(t, 1_000_000)
	if len(events) != 3 {
		t.Fatalf("published %d lines, want 3", len(events))
	}
	if r.sts[0].Get("fence_stall_cycles") == 0 {
		t.Fatal("fence did not wait for the WOQ flush")
	}
}

func TestTUSContendedLineResolvesByLex(t *testing.T) {
	// Two cores hammer the same two shared lines; the run must finish
	// (no deadlock/livelock) and exercise the authorization unit.
	// Each iteration writes a cold private line and then a shared line;
	// the shared line's group waits behind the slow private miss, so it
	// sits ready-but-not-visible long enough for external probes to
	// reach the authorization unit.
	mk := func(c int) []isa.MicroOp {
		var ops []isa.MicroOp
		for i := 0; i < 300; i++ {
			priv := uint64(1)<<32 + uint64(c)<<28 + uint64(i)*64
			ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: priv, Size: 8})
			ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: uint64(i%2)*4096 + uint64(c)*8, Size: 8})
			ops = append(ops, isa.MicroOp{Kind: isa.IntAdd})
		}
		return ops
	}
	r := newRig(t, 2, [][]isa.MicroOp{mk(0), mk(1)}, nil)
	r.run(t, 3_000_000)
	delays := r.sts[0].Get("tus_lex_delays") + r.sts[1].Get("tus_lex_delays")
	relinq := r.sts[0].Get("tus_lex_relinquishes") + r.sts[1].Get("tus_lex_relinquishes")
	if delays+relinq == 0 {
		t.Fatal("contention never reached the authorization unit")
	}
}

func TestTUSAblationNoCoalesce(t *testing.T) {
	trace := stores(0x1000, 0x1008, 0x1010, 0x1018, 0x2000, 0x2008)
	r := newRig(t, 1, [][]isa.MicroOp{trace}, func(c *config.Config) { c.TUSCoalesce = false })
	r.run(t, 1_000_000)
	// Without coalescing every store writes L1D individually.
	if w := r.sts[0].Get("l1d_writes"); w < 6 {
		t.Fatalf("l1d_writes = %d, want >= 6 without coalescing", w)
	}
	if r.sts[0].Get("tus_lines_made_visible") == 0 {
		t.Fatal("nothing published in ablation mode")
	}
}

func TestTUSLoadAliasedUntilReady(t *testing.T) {
	// A load to a line whose store already left the SB unauthorized
	// must still return the store's value.
	ops := []isa.MicroOp{
		{Kind: isa.Store, Addr: 0x1000, Size: 8},
	}
	// Pad so the store drains before the load issues.
	for i := 0; i < 40; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.IntAdd, Dep1: 1})
	}
	ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: 0x1000, Size: 8, Dep1: 1})
	r := newRig(t, 1, [][]isa.MicroOp{ops}, nil)
	var got [8]byte
	r.cores[0].OnLoadValue = func(core int, seq, addr uint64, size uint8, v [8]byte) { got = v }
	r.run(t, 1_000_000)
	want := cpu.StoreValue(0, 0)
	if got != want {
		t.Fatalf("load got %v, want the store's value %v", got, want)
	}
}

// TestTUSDrainZeroAlloc pins TUS's drain in steady state: a store cycle
// over two lines per group, on private caches too small to keep the
// footprint, so the WOQ keeps filling and publishing groups from its
// head. Once a round over the footprint has grown every pool and table,
// none of it allocates — publishing slides the WOQ in place.
func TestTUSDrainZeroAlloc(t *testing.T) {
	const lines = 64
	var ops []isa.MicroOp
	for round := 0; round < 200; round++ {
		for j := uint64(0); j < lines; j += 2 {
			a, b := 0x100000+j*64, 0x100000+(j+1)*64
			ops = append(ops, stores(a, b, a+8)...)
		}
	}
	r := newRig(t, 1, [][]isa.MicroOp{ops}, func(c *config.Config) {
		c.Reference = false // the pin is on the production containers
		c.PrefetchAtCommit = false
		c.L1D.SizeBytes, c.L1D.Ways = 4*64, 4
		c.L2.SizeBytes, c.L2.Ways = 16*64, 16
	})
	tick := func() {
		for i := 0; i < 1000; i++ {
			r.q.Advance()
			r.cores[0].Tick()
		}
	}
	for i := 0; i < 5; i++ {
		tick()
	}
	st := r.sts[0]
	groups := st.Get("tus_visible_groups")
	if n := testing.AllocsPerRun(5, tick); n != 0 {
		t.Fatalf("TUS drain allocates %.1f times per 1,000 cycles, want 0", n)
	}
	if r.cores[0].Done() || st.Get("tus_visible_groups") == groups || st.Get("l2_misses") < lines {
		t.Fatalf("measured %d visible groups over %d misses (done=%v): the trace no longer keeps the WOQ draining",
			st.Get("tus_visible_groups")-groups, st.Get("l2_misses"), r.cores[0].Done())
	}
}
