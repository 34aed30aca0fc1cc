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
	"tusim/internal/prefetch"
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
	if cfg.StreamPrefetcher {
		priv.OnDemandMiss = prefetch.NewStream(priv, cfg.StreamPrefetchDegree, st).OnMiss
	}
	var m cpu.DrainMechanism
	switch mechName {
	case "base":
		m = NewBase(core, cfg, st)
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

// TestLookaheadSkipLockstep: every drain mechanism skips its lookahead
// walk while its store ring's generation and the private's permission
// epoch stand still; the reference machine walks every cycle. With
// prefetch-at-commit off the walk is the only source of ahead-of-head
// RFOs, and with four MSHRs most of its requests are refused and must be
// retried the cycle an MSHR frees — so a skipped walk that mattered shows
// at once. Each row steps the two machines together (lockstep), and they
// must agree every cycle on the misses in flight, the store rings and commit
// progress, fault-free and with an injector that refuses MSHRs at random
// (each query consumes a decision: skipping a walk that would have asked
// desynchronizes the two streams) and NACKs requests at random (a NACKed
// lookahead request frees its MSHR with no line changing state). SPB is
// base plus a prefetcher; the system-level twin runs cover it.
func TestLookaheadSkipLockstep(t *testing.T) {
	const pool = 90
	var ops []isa.MicroOp
	for i := uint64(0); i < 400; i++ {
		// Runs of one to four stores per line over the pool, revisited.
		line := 0x40000 + (i/(1+i%4)*7%pool)*64
		ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: line + i%8*8, Size: 8})
		if i%9 == 0 {
			// A load miss to a line the drain will reach: the walk upgrades
			// the read MSHR it finds.
			ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: 0x40000 + (i*5%pool)*64, Size: 8})
		}
	}
	// The tail is where a pop alone moves the window. Sixteen lines the
	// remote never touches are written first, and a far load miss stops
	// commit while they drain. Then a cold line G, a written line H and a
	// written line Z fill both WCBs and flush G; while G's permission is
	// out, the rest commits: seven more stores to H, fourteen written
	// lines and a cold line C, the window's sixteenth. When G arrives the
	// group write frees its MSHR and the drain pops Z and the H run into
	// the WCBs; nothing commits after that, so the next cycle's window,
	// which now reaches C, differs from the last walk's by pops alone.
	own := func(j uint64) uint64 { return 0x80000 + j*64 }
	store := func(addr uint64) { ops = append(ops, isa.MicroOp{Kind: isa.Store, Addr: addr, Size: 8}) }
	for j := uint64(0); j < 16; j++ {
		store(own(j))
	}
	ops = append(ops, isa.MicroOp{Kind: isa.Load, Addr: 0x400000, Size: 8})
	store(0x90000)
	store(own(0))
	store(own(1))
	for j := uint64(1); j < 8; j++ {
		store(own(0) + j*8)
	}
	for j := uint64(2); j < 16; j++ {
		store(own(j))
	}
	store(0x90040)
	for _, mechName := range []string{"base", "csb", "ssb"} {
		for _, pressure := range []int{0, 30} {
			t.Run(fmt.Sprintf("%s/pressure%d", mechName, pressure), func(t *testing.T) {
				fast := lockstep(t, ops, mechName, pressure, 0x40000, pool, nil)
				if fast.st.Get("l2_misses") < pool || fast.st.Get("drain_blocked_cycles") == 0 || fast.remoteSt.Get("l2_misses") == 0 {
					t.Fatalf("%d misses, %d blocked cycles, %d remote misses: the trace no longer stresses the lookahead",
						fast.st.Get("l2_misses"), fast.st.Get("drain_blocked_cycles"), fast.remoteSt.Get("l2_misses"))
				}
			})
		}
	}

	// A write-back that lands under a waiting lookahead. Sixteen written
	// lines fill a one-set, 16-way L2; behind a fence, three cold loads
	// evict the oldest three, whose write-backs go out. Then a cold line
	// heads the drain, and stores to the three evicted lines commit behind
	// it: the walk finds each refused for its write-back, and the landing
	// is the only thing that says it must ask again while the head waits.
	t.Run("base/writeback", func(t *testing.T) {
		own := func(j uint64) uint64 { return 0x100000 + j*64 }
		var wbOps []isa.MicroOp
		for j := uint64(0); j < 16; j++ {
			wbOps = append(wbOps, storeTrace(own(j))...)
		}
		wbOps = append(wbOps, isa.MicroOp{Kind: isa.Fence})
		for j := uint64(0); j < 3; j++ {
			wbOps = append(wbOps, isa.MicroOp{Kind: isa.Load, Addr: 0x300000 + j*0x10000, Size: 8})
		}
		wbOps = append(wbOps, storeTrace(0x500000, own(0), own(1), own(2))...)
		fast := lockstep(t, wbOps, "base", 0, 0x600000, 8, func(c *config.Config) {
			c.StreamPrefetcher = false
			c.L1D.SizeBytes, c.L1D.Ways = 4*64, 4
			c.L2.SizeBytes, c.L2.Ways = 16*64, 16
		})
		if fast.landed == 0 {
			t.Fatal("no write-back landed while its line waited behind the drain head: the trace no longer reaches the case")
		}
	})
}

// lockMachine is one side of a lockstep pair: a core under test, its
// stream prefetcher on (read MSHRs in the window, which the walk
// upgrades), plus a remote hierarchy that reads and steals lines of the
// same pool. The remote's GetMs invalidate lines under the drain (only a
// state change says the walk must ask again), and its reads make the
// core's read misses come back shared, so a missed upgrade shows.
type lockMachine struct {
	*rig
	remote   *memsys.Private
	remoteSt *stats.Set
	// landed counts the write-backs that landed while their line sat in
	// the lookahead window behind the drain head.
	landed int
}

// lookaheadOf returns m's drain lookahead.
func lookaheadOf(m cpu.DrainMechanism) *lookahead {
	switch m := m.(type) {
	case *Base:
		return &m.lookahead
	case *CSB:
		return &m.lookahead
	case *SSB:
		return &m.lookahead
	}
	panic(fmt.Sprintf("no lookahead in %T", m))
}

// lockstep runs ops on a skipping and a reference machine cycle by
// cycle, failing at the first cycle they disagree, and returns the
// skipping side. mut, when set, adjusts both machines' configuration.
func lockstep(t *testing.T, ops []isa.MicroOp, mechName string, pressure int, base, pool uint64, mut func(*config.Config)) lockMachine {
	t.Helper()
	build := func(ref bool) lockMachine {
		var cfg *config.Config
		r := newRig(t, ops, mechName, func(c *config.Config) {
			c.PrefetchAtCommit = false
			c.StreamPrefetcher = true
			c.L1D.MSHRs = 4
			c.Reference = ref
			if mut != nil {
				mut(c)
			}
			cfg = c
		})
		m := lockMachine{rig: r, remoteSt: stats.NewSet("remote")}
		m.remote = memsys.NewPrivate(1, cfg, r.q, r.dir, m.remoteSt)
		m.remote.LoadReply = func(seq, data uint64) {}
		r.dir.Attach([]*memsys.Private{r.priv, m.remote})
		if pressure > 0 {
			in := faults.NewInjector(faults.Plan{Seed: 11, MSHRPressurePct: pressure, NackPct: 20})
			r.priv.SetFaults(in)
			r.dir.SetFaults(in)
		}
		return m
	}
	state := func(m lockMachine) string {
		var b strings.Builder
		fmt.Fprintf(&b, "committed %d sb %d", m.core.Committed(), m.core.SB.Len())
		if s, ok := m.mech.(*SSB); ok {
			fmt.Fprintf(&b, " tsob %+v", s.AuditTSOB())
		}
		b.WriteString(" mshrs")
		m.priv.AuditMSHRs(func(line, born uint64, wantM, _ bool) { fmt.Fprintf(&b, " %#x@%d/%v", line, born, wantM) })
		return b.String()
	}
	fast, ref := build(false), build(true)
	// The reference ring finds the window: asking the skipping one would
	// move its watermark.
	la := lookaheadOf(ref.mech)
	var waiting []uint64 // window lines behind the head with a write-back in flight
	for cycle := uint64(1); !fast.core.Done() || !ref.core.Done(); cycle++ {
		if cycle > 1_000_000 {
			t.Fatalf("not finished after %d cycles", cycle)
		}
		for _, l := range waiting {
			if !fast.priv.WBPending(l) {
				fast.landed++
			}
		}
		waiting = waiting[:0]
		la.ring.LookaheadLines(la.k, true, func(l uint64) {
			if l != la.ring.Head().Line() && fast.priv.WBPending(l) {
				waiting = append(waiting, l)
			}
		})
		line := base + cycle*13%pool*64
		for _, m := range []lockMachine{fast, ref} {
			m.q.Advance()
			switch {
			case cycle%11 == 0:
				m.remote.LoadSeq(line, 8, cycle)
			case cycle%67 == 0:
				m.remote.RequestWritable(line, false, true, nil)
			}
			m.core.Tick()
		}
		if f, r := state(fast), state(ref); f != r {
			t.Fatalf("cycle %d:\nskipping:  %s\nreference: %s", cycle, f, r)
		}
	}
	if f, r := fast.st.String()+fast.remoteSt.String(), ref.st.String()+ref.remoteSt.String(); f != r {
		t.Fatalf("statistics differ:\nskipping:\n%s\nreference:\n%s", f, r)
	}
	return fast
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

// TestCSBGroupFlushZeroAlloc pins CSB's drain in steady state. Every
// group is a store cycle over two lines the tiny private caches have
// lost again by the next round, so most cycles are spent in advanceFlush
// waiting for the group's permissions; once a round over the footprint
// has grown every pool and table, none of it allocates.
func TestCSBGroupFlushZeroAlloc(t *testing.T) {
	const lines = 64
	var ops []isa.MicroOp
	for round := 0; round < 200; round++ {
		for j := uint64(0); j < lines; j += 2 {
			a, b := 0x100000+j*64, 0x100000+(j+1)*64
			ops = append(ops, storeTrace(a, b, a+8)...)
		}
	}
	r := newRig(t, ops, "csb", func(c *config.Config) {
		c.Reference = false // the pin is on the production containers
		c.PrefetchAtCommit = false
		c.L1D.SizeBytes, c.L1D.Ways = 4*64, 4
		c.L2.SizeBytes, c.L2.Ways = 16*64, 16
	})
	tick := func() {
		for i := 0; i < 1000; i++ {
			r.q.Advance()
			r.core.Tick()
		}
	}
	for i := 0; i < 5; i++ {
		tick()
	}
	flushes := r.st.Get("csb_group_writes")
	if n := testing.AllocsPerRun(5, tick); n != 0 {
		t.Fatalf("CSB drain allocates %.1f times per 1,000 cycles, want 0", n)
	}
	if r.core.Done() || r.st.Get("csb_group_writes") == flushes || r.st.Get("l2_misses") < lines {
		t.Fatalf("measured %d group writes over %d misses (done=%v): the trace no longer keeps groups waiting",
			r.st.Get("csb_group_writes")-flushes, r.st.Get("l2_misses"), r.core.Done())
	}
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
