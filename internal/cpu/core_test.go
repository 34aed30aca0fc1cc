package cpu

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/stats"
)

// coreRig is a single core wired to a 1-core memory system with a
// trivial drain mechanism (baseline-like, inlined to avoid an import
// cycle with internal/mech).
type coreRig struct {
	q    *event.Queue
	core *Core
	st   *stats.Set
	mem  *memsys.Memory
}

// testDrain is a minimal in-order store drain.
type testDrain struct {
	core *Core
	priv *memsys.Private
}

func (d *testDrain) Name() string { return "test" }
func (d *testDrain) Tick() {
	e := d.core.SB.Head()
	if e == nil || !e.Committed {
		return
	}
	line := e.Line()
	if d.priv.Writable(line) {
		if d.priv.StoreVisible(e.Addr, e.Data[:e.Size]) {
			d.core.SB.Pop()
			return
		}
	}
	d.priv.RequestWritable(line, false, true, nil)
}
func (d *testDrain) Forward(addr uint64, size uint8) (ForwardResult, [8]byte) {
	return FwdMiss, [8]byte{}
}
func (d *testDrain) Drained() bool   { return true }
func (d *testDrain) FlushDone() bool { return true }

// Quiescent never lets a run loop skip: the rig ticks cores by hand.
func (d *testDrain) Quiescent(bool) Idle { return Idle{} }

func newCoreRig(t *testing.T, ops []isa.MicroOp, mut func(*config.Config)) *coreRig {
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
	core := NewCore(0, cfg, q, priv, isa.NewSliceStream(ops), st)
	core.SetMechanism(&testDrain{core: core, priv: priv})
	return &coreRig{q: q, core: core, st: st, mem: mem}
}

func (r *coreRig) run(t *testing.T, maxCycles int) {
	t.Helper()
	for i := 0; i < maxCycles; i++ {
		if r.core.Done() {
			return
		}
		r.q.Advance()
		r.core.Tick()
	}
	t.Fatalf("core did not finish in %d cycles (committed %d)", maxCycles, r.st.Get("committed_ops"))
}

func TestCoreRunsALUTrace(t *testing.T) {
	var ops []isa.MicroOp
	for i := 0; i < 100; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.IntAdd, Dep1: 1})
	}
	ops[0].Dep1 = 0
	r := newCoreRig(t, ops, nil)
	r.run(t, 10_000)
	if got := r.st.Get("committed_ops"); got != 100 {
		t.Fatalf("committed %d", got)
	}
	// A serial dependency chain of 1-cycle adds runs at IPC ~1.
	cycles := r.st.Get("cycles")
	if cycles < 100 || cycles > 200 {
		t.Fatalf("serial add chain took %d cycles, want ~100-200", cycles)
	}
}

func TestCoreILP(t *testing.T) {
	// Independent adds are bound by front-end width (6/cycle) and ALUs
	// (4/cycle) -> roughly ops/4 cycles.
	var ops []isa.MicroOp
	for i := 0; i < 400; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.IntAdd})
	}
	r := newCoreRig(t, ops, nil)
	r.run(t, 10_000)
	cycles := r.st.Get("cycles")
	if cycles > 400/2 {
		t.Fatalf("independent adds took %d cycles; ALU parallelism broken", cycles)
	}
}

func TestDivLatencyRespected(t *testing.T) {
	// Chain of 10 dependent divisions: >= 10*12 cycles.
	var ops []isa.MicroOp
	for i := 0; i < 10; i++ {
		d := uint16(1)
		if i == 0 {
			d = 0
		}
		ops = append(ops, isa.MicroOp{Kind: isa.IntDiv, Dep1: d})
	}
	r := newCoreRig(t, ops, nil)
	r.run(t, 10_000)
	if cycles := r.st.Get("cycles"); cycles < 120 {
		t.Fatalf("10 chained divs took %d cycles, want >= 120", cycles)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	ops := []isa.MicroOp{
		{Kind: isa.Store, Addr: 0x1000, Size: 8},
		{Kind: isa.Load, Addr: 0x1000, Size: 8},
	}
	r := newCoreRig(t, ops, nil)
	var loaded [8]byte
	r.core.OnLoadValue = func(core int, seq, addr uint64, size uint8, v [8]byte) { loaded = v }
	r.run(t, 100_000)
	want := StoreValue(0, 0)
	if loaded != want {
		t.Fatalf("forwarded %v, want %v", loaded, want)
	}
	if r.st.Get("sb_forward_hits") != 1 {
		t.Fatalf("sb_forward_hits = %d, want 1", r.st.Get("sb_forward_hits"))
	}
}

func TestLoadFromMemory(t *testing.T) {
	var seed memsys.LineData
	seed[0] = 0xAB
	ops := []isa.MicroOp{{Kind: isa.Load, Addr: 0x2000, Size: 1}}
	r := newCoreRig(t, ops, nil)
	r.mem.WriteLine(0x2000, &seed)
	var loaded [8]byte
	r.core.OnLoadValue = func(core int, seq, addr uint64, size uint8, v [8]byte) { loaded = v }
	r.run(t, 100_000)
	if loaded[0] != 0xAB {
		t.Fatalf("loaded %#x, want 0xAB", loaded[0])
	}
}

func TestSBStallAttribution(t *testing.T) {
	// A tiny SB and a long run of stores to cold lines must produce
	// SB-full dispatch stalls.
	var ops []isa.MicroOp
	for i := 0; i < 400; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: uint64(i) * 64, Size: 8})
	}
	r := newCoreRig(t, ops, func(c *config.Config) { c.SBEntries = 4; c.PrefetchAtCommit = false })
	r.run(t, 1_000_000)
	if r.st.Get("stall_sb") == 0 {
		t.Fatal("no SB stalls with a 4-entry SB and 400 cold stores")
	}
	if r.st.Get("stall_rob") > r.st.Get("stall_sb") {
		t.Fatal("stalls attributed to ROB instead of SB")
	}
}

func TestROBStallAttribution(t *testing.T) {
	// A long dependent load chain fills the ROB, not the SB.
	var ops []isa.MicroOp
	for i := 0; i < 600; i++ {
		d := uint16(1)
		if i == 0 {
			d = 0
		}
		ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: uint64(i) * 4096, Size: 8, Dep1: d})
	}
	r := newCoreRig(t, ops, func(c *config.Config) { c.ROBEntries = 32; c.LQEntries = 64 })
	r.run(t, 5_000_000)
	if r.st.Get("stall_rob") == 0 {
		t.Fatal("no ROB stalls with a 32-entry ROB and serial miss chain")
	}
}

// TestROBRingGrowsWithOccupancy: the ring starts at robFirst entries
// and becomes the power of two covering ROBEntries only once more ops
// are in flight than it holds. Dependents registered on an op before
// the move must still wake.
func TestROBRingGrowsWithOccupancy(t *testing.T) {
	for _, tc := range []struct {
		name        string
		ops, robCap int
		wantRing    int
	}{
		{"short program keeps the first ring", 8, 512, robFirst},
		{"saturated default ROB", 700, 512, 512},
		{"capacity that is not a power of two", 300, 100, 128},
		{"capacity below the first ring", 60, 8, robFirst},
	} {
		// A load miss at the head holds commit while dispatch runs ahead;
		// every later op depends on it (its waiter list crosses the
		// move) or is independent.
		ops := []isa.MicroOp{{Kind: isa.Load, Addr: 0x4000, Size: 8}}
		for i := 1; i < tc.ops; i++ {
			op := isa.MicroOp{Kind: isa.IntAdd}
			if i%3 == 0 {
				op.Dep1 = uint16(i)
			}
			ops = append(ops, op)
		}
		r := newCoreRig(t, ops, func(c *config.Config) { c.ROBEntries = tc.robCap })
		r.run(t, 100_000)
		if got := r.st.Get("committed_ops"); got != uint64(tc.ops) {
			t.Errorf("%s: committed %d of %d ops", tc.name, got, tc.ops)
		}
		if len(r.core.rob) != tc.wantRing || r.core.robMask != uint64(tc.wantRing-1) {
			t.Errorf("%s: ring of %d entries (mask %#x), want %d", tc.name, len(r.core.rob), r.core.robMask, tc.wantRing)
		}
		if full := r.st.Get("stall_rob") > 0; full != (tc.ops > tc.robCap) {
			t.Errorf("%s: stall_rob = %d with %d ops against a %d-entry ROB", tc.name, r.st.Get("stall_rob"), tc.ops, tc.robCap)
		}
	}
}

// TestSBRingGrowsUnderInFlightStores: stores dispatched into the first
// SB ring wait on a load miss while younger stores grow the ring twice;
// they execute, commit and drain with their own data after the move.
func TestSBRingGrowsUnderInFlightStores(t *testing.T) {
	const early, stores = 4, 24
	ops := []isa.MicroOp{{Kind: isa.Load, Addr: 0x4000, Size: 8}}
	for i := 1; i <= stores; i++ {
		op := isa.MicroOp{Kind: isa.Store, Addr: 0x10000 + uint64(i)*64, Size: 8}
		if i <= early {
			op.Dep1 = uint16(i) // the load's value is the store's data
		}
		ops = append(ops, op)
	}
	r := newCoreRig(t, ops, nil)
	visible := map[uint64][8]byte{}
	r.core.priv.OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		visible[line] = [8]byte(data[:8])
	}
	grown := false
	for cycle := 0; cycle < 100_000 && !r.core.Done(); cycle++ {
		r.q.Advance()
		r.core.Tick()
		if !grown && len(r.core.SB.entries) > sbFirst {
			grown = true
			for _, e := range r.core.rob {
				if e.valid && e.op.Kind == isa.Store && e.seq <= early && e.done {
					t.Fatalf("store %d executed before the ring grew: the test no longer crosses the move", e.seq)
				}
			}
		}
	}
	if !r.core.Done() || !r.core.SB.Empty() {
		t.Fatalf("core stuck: %d of %d ops committed, %d stores in the SB",
			r.st.Get("committed_ops"), len(ops), r.core.SB.Len())
	}
	if len(r.core.SB.entries) != 32 {
		t.Fatalf("SB ring of %d slots, want it grown to 32", len(r.core.SB.entries))
	}
	for i := 1; i <= stores; i++ {
		line := 0x10000 + uint64(i)*64
		if got, want := visible[line], StoreValue(0, uint64(i)); got != want {
			t.Errorf("store %d drained %v, want %v", i, got, want)
		}
	}
}

func TestFenceOrdersStores(t *testing.T) {
	ops := []isa.MicroOp{
		{Kind: isa.Store, Addr: 0x1000, Size: 8},
		{Kind: isa.Fence},
		{Kind: isa.Store, Addr: 0x2000, Size: 8},
		{Kind: isa.IntAdd},
	}
	r := newCoreRig(t, ops, nil)
	var order []uint64
	r.core.Priv().OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		order = append(order, line)
	}
	r.run(t, 1_000_000)
	if len(order) != 2 || order[0] != 0x1000 || order[1] != 0x2000 {
		t.Fatalf("visibility order = %#v", order)
	}
	if r.st.Get("fence_stall_cycles") == 0 {
		t.Fatal("fence should have stalled commit while the SB drained")
	}
}

func TestFenceBlocksYoungerLoads(t *testing.T) {
	// A load after a fence must not bind before the fence commits.
	ops := []isa.MicroOp{
		{Kind: isa.Store, Addr: 0x3000, Size: 8}, // slow (cold miss)
		{Kind: isa.Fence},
		{Kind: isa.Load, Addr: 0x4000, Size: 8},
	}
	r := newCoreRig(t, ops, nil)
	var loadBound uint64
	r.core.OnLoadValue = func(core int, seq, addr uint64, size uint8, v [8]byte) { loadBound = r.q.Now() }
	var storeVisible uint64
	r.core.Priv().OnStoreVisible = func(line uint64, mask memsys.Mask, data *memsys.LineData) {
		if line == 0x3000 {
			storeVisible = r.q.Now()
		}
	}
	r.run(t, 1_000_000)
	if loadBound <= storeVisible {
		t.Fatalf("load bound at %d before/at fence-ordered store visibility %d", loadBound, storeVisible)
	}
}

func TestCommitWidthBound(t *testing.T) {
	// N independent 1-cycle ops cannot commit faster than CommitWidth.
	var ops []isa.MicroOp
	for i := 0; i < 800; i++ {
		ops = append(ops, isa.MicroOp{Kind: isa.Nop})
	}
	r := newCoreRig(t, ops, func(c *config.Config) { c.CommitWidth = 2 })
	r.run(t, 100_000)
	if cycles := r.st.Get("cycles"); cycles < 400 {
		t.Fatalf("800 ops committed in %d cycles with commit width 2", cycles)
	}
}

func TestStoreValueDeterministic(t *testing.T) {
	if StoreValue(1, 42) != StoreValue(1, 42) {
		t.Fatal("StoreValue not deterministic")
	}
	if StoreValue(1, 42) == StoreValue(2, 42) || StoreValue(1, 42) == StoreValue(1, 43) {
		t.Fatal("StoreValue collisions across core/seq")
	}
}
