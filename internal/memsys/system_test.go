package memsys

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/stats"
)

// rig wires N private hierarchies to one directory for protocol tests.
type rig struct {
	cfg *config.Config
	q   *event.Queue
	mem *Memory
	dir *Directory
	ps  []*Private
	st  *stats.Set

	// Loads go in through LoadSeq and come back through LoadReply, the
	// path cpu.Core drives; pending maps a seq to the test's callback.
	seq     uint64
	pending map[uint64]pendingLoad
}

type pendingLoad struct {
	size uint8
	cb   func([]byte)
}

func newRig(t testing.TB, cores int, mut func(*config.Config)) *rig {
	t.Helper()
	cfg := config.Default().WithCores(cores)
	if mut != nil {
		mut(cfg)
	}
	return buildRig(cfg)
}

func buildRig(cfg *config.Config) *rig {
	q := event.NewQueueRef(cfg.Reference)
	mem := NewMemory()
	st := stats.NewSet("sys")
	dram := NewDRAM(q, cfg.DRAMLatency, cfg.DRAMMaxInFlight)
	dir := NewDirectory(cfg, q, mem, dram, st)
	r := &rig{cfg: cfg, q: q, mem: mem, dir: dir, st: st, pending: map[uint64]pendingLoad{}}
	r.ps = make([]*Private, cfg.Cores)
	for i := range r.ps {
		r.ps[i] = NewPrivate(i, cfg, q, dir, stats.NewSet("p"))
		r.ps[i].LoadReply = r.loadReply
	}
	dir.Attach(r.ps)
	return r
}

// load issues a timed read the way the core does; cb receives the
// reply's packed bytes unpacked again. False means the access could not
// start (MSHRs full).
func (r *rig) load(core int, addr uint64, size uint8, cb func([]byte)) bool {
	r.seq++
	r.pending[r.seq] = pendingLoad{size, cb}
	if !r.ps[core].LoadSeq(addr, size, r.seq) {
		delete(r.pending, r.seq)
		return false
	}
	return true
}

func (r *rig) loadReply(seq, data uint64) {
	pl := r.pending[seq]
	delete(r.pending, seq)
	out := make([]byte, pl.size)
	for i := range out {
		out[i] = byte(data >> (8 * i))
	}
	pl.cb(out)
}

// lineStore turns a byte-granular store into the (line, data, mask)
// triple the line-granular store paths take.
func lineStore(addr uint64, data []byte) (uint64, *LineData, Mask) {
	var ld LineData
	copy(ld[addr&(LineBytes-1):], data)
	return addr & LineMask, &ld, MaskFor(addr, uint8(len(data)))
}

// ownerOf is the directory's notion of a line's owner (-1 when none).
func (r *rig) ownerOf(line uint64) int {
	owner, _, _, _ := r.dir.EntryInfo(line)
	return owner
}

func (r *rig) run(t testing.TB) {
	t.Helper()
	r.q.Drain(r.q.Now() + 1_000_000)
}

func (r *rig) mustLoad(t testing.TB, core int, addr uint64, size uint8) []byte {
	t.Helper()
	var got []byte
	if !r.load(core, addr, size, func(d []byte) { got = d }) {
		t.Fatalf("Load(%#x) could not start", addr)
	}
	r.run(t)
	if got == nil {
		t.Fatalf("Load(%#x) never completed", addr)
	}
	return got
}

func (r *rig) mustWritable(t testing.TB, core int, line uint64) {
	t.Helper()
	ok := false
	if !r.ps[core].RequestWritable(line, false, true, func(b bool) { ok = b }) {
		t.Fatalf("RequestWritable(%#x) could not start", line)
	}
	r.run(t)
	if !ok {
		t.Fatalf("RequestWritable(%#x) never granted", line)
	}
}

func TestLoadMissFillHit(t *testing.T) {
	r := newRig(t, 1, nil)
	var seed LineData
	for i := range seed {
		seed[i] = byte(i)
	}
	r.mem.WriteLine(0x1000, &seed)

	start := r.q.Now()
	var doneAt uint64
	r.load(0, 0x1008, 4, func(d []byte) {
		doneAt = r.q.Now()
		if d[0] != 8 || d[3] != 11 {
			t.Errorf("load data = %v", d)
		}
	})
	r.run(t)
	// Miss path: L3 round trip (34) + DRAM (160).
	want := start + r.cfg.L3.Latency + r.cfg.DRAMLatency
	if doneAt != want {
		t.Errorf("miss completed at %d, want %d", doneAt, want)
	}

	// Second access is an L1 hit at L1 latency.
	start = r.q.Now()
	r.load(0, 0x1000, 8, func(d []byte) { doneAt = r.q.Now() })
	r.run(t)
	if doneAt != start+r.cfg.L1D.Latency {
		t.Errorf("hit completed at %d, want %d", doneAt, start+r.cfg.L1D.Latency)
	}
	if r.ps[0].st.Get("l1d_hits") != 1 {
		t.Errorf("l1d_hits = %d, want 1", r.ps[0].st.Get("l1d_hits"))
	}
}

func TestLoadMergesIntoMSHR(t *testing.T) {
	r := newRig(t, 1, nil)
	done := 0
	r.load(0, 0x2000, 8, func([]byte) { done++ })
	r.load(0, 0x2008, 8, func([]byte) { done++ })
	if got := r.st.Get("llc_accesses"); got != 0 {
		t.Fatalf("llc access counted before arrival: %d", got)
	}
	r.run(t)
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if got := r.st.Get("llc_accesses"); got != 1 {
		t.Fatalf("llc_accesses = %d, want 1 (merged into one MSHR)", got)
	}
}

func TestStoreRequiresPermission(t *testing.T) {
	r := newRig(t, 1, nil)
	if r.ps[0].StoreVisible(0x3000, []byte{1, 2, 3, 4}) {
		t.Fatal("store succeeded without permission")
	}
	r.mustWritable(t, 0, 0x3000)
	if !r.ps[0].StoreVisible(0x3004, []byte{9, 9}) {
		t.Fatal("store failed with M permission")
	}
	got := r.mustLoad(t, 0, 0x3004, 2)
	if got[0] != 9 || got[1] != 9 {
		t.Fatalf("load after store = %v", got)
	}
}

func TestExclusiveGrantOnSoleReader(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mustLoad(t, 0, 0x4000, 8)
	pl := r.ps[0].Lookup(0x4000)
	if pl == nil || pl.State != StateE {
		t.Fatalf("sole reader state = %v, want E", pl.State)
	}
	// Second core loads: first core downgrades to S.
	r.mustLoad(t, 1, 0x4000, 8)
	if got := r.ps[0].Lookup(0x4000).State; got != StateS {
		t.Fatalf("old owner state = %v, want S", got)
	}
	if got := r.ps[1].Lookup(0x4000).State; got != StateS {
		t.Fatalf("new reader state = %v, want S", got)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mustLoad(t, 0, 0x5000, 8)
	r.mustLoad(t, 1, 0x5000, 8)
	r.mustWritable(t, 1, 0x5000)
	if pl := r.ps[0].Lookup(0x5000); pl != nil && pl.State != StateI {
		t.Fatalf("sharer not invalidated: %v", pl.State)
	}
	if !r.ps[1].Writable(0x5000) {
		t.Fatal("writer did not gain M")
	}
	if r.ownerOf(0x5000) != 1 {
		t.Fatalf("directory owner = %d, want 1", r.ownerOf(0x5000))
	}
}

func TestDirtyDataMigrates(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mustWritable(t, 0, 0x6000)
	if !r.ps[0].StoreVisible(0x6000, []byte{0xAB, 0xCD}) {
		t.Fatal("store failed")
	}
	got := r.mustLoad(t, 1, 0x6000, 2)
	if got[0] != 0xAB || got[1] != 0xCD {
		t.Fatalf("remote read saw %v, want dirty data", got)
	}
	// And write-write migration:
	r.mustWritable(t, 1, 0x6000)
	if !r.ps[1].StoreVisible(0x6002, []byte{0xEF}) {
		t.Fatal("second store failed")
	}
	got = r.mustLoad(t, 0, 0x6000, 4)
	if got[0] != 0xAB || got[1] != 0xCD || got[2] != 0xEF {
		t.Fatalf("migrated data = %v", got)
	}
}

func TestL1EvictionWritesBackThroughL2(t *testing.T) {
	// Shrink L1 to 2 sets x 1 way to force eviction quickly.
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64
		c.L1D.Ways = 1
	})
	r.mustWritable(t, 0, 0x0)
	if !r.ps[0].StoreVisible(0x0, []byte{0x77}) {
		t.Fatal("store failed")
	}
	// Load two more lines mapping to set 0 (line addr multiples of 128).
	r.mustLoad(t, 0, 0x80, 8)
	r.mustLoad(t, 0, 0x100, 8)
	pl := r.ps[0].Lookup(0x0)
	if pl == nil {
		t.Fatal("line 0 fully lost")
	}
	if pl.InL1 {
		t.Fatal("line 0 should have been evicted from L1")
	}
	if !pl.InL2 || pl.L2Data[0] != 0x77 {
		t.Fatal("dirty data not written back to L2")
	}
	// And it still reads correctly (L2 hit).
	got := r.mustLoad(t, 0, 0x0, 1)
	if got[0] != 0x77 {
		t.Fatalf("reload = %v", got)
	}
}

func TestBusyLineSerializesRequests(t *testing.T) {
	r := newRig(t, 2, nil)
	okA, okB := false, false
	var grantA, grantB uint64
	r.ps[0].RequestWritable(0x7000, false, true, func(b bool) { okA = b; grantA = r.q.Now() })
	r.ps[1].RequestWritable(0x7000, false, true, func(b bool) { okB = b; grantB = r.q.Now() })
	r.run(t)
	if !okA || !okB {
		t.Fatalf("requests not eventually granted: A=%v B=%v", okA, okB)
	}
	if grantA == grantB {
		t.Fatal("conflicting writable grants completed simultaneously")
	}
	// The second grant must have waited for (and invalidated) the first.
	owner := r.ownerOf(0x7000)
	if owner != 0 && owner != 1 {
		t.Fatalf("owner = %d", owner)
	}
	if r.ps[0].Writable(0x7000) && r.ps[1].Writable(0x7000) {
		t.Fatal("both cores writable: coherence violation")
	}
	if !r.ps[owner].Writable(0x7000) {
		t.Fatal("directory owner does not hold the line")
	}
}

func TestMSHRLimit(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) { c.L1D.MSHRs = 2 })
	if !r.load(0, 0x100, 8, func([]byte) {}) {
		t.Fatal("first load rejected")
	}
	if !r.load(0, 0x200, 8, func([]byte) {}) {
		t.Fatal("second load rejected")
	}
	if r.load(0, 0x300, 8, func([]byte) {}) {
		t.Fatal("third load should have been rejected (MSHRs full)")
	}
	r.run(t)
	if !r.load(0, 0x300, 8, func([]byte) {}) {
		t.Fatal("load rejected after MSHRs drained")
	}
}

// TestPermEpochTracksKeepWritableInputs pins the key the drain lookahead
// skips on: each input of KeepWritable moves PermEpoch on its own — a
// state write, an MSHR allocation, an MSHR free (a NACK, no state
// changes), an MSHR query that consumes an injector decision and a
// write-back landing.
func TestPermEpochTracksKeepWritableInputs(t *testing.T) {
	r := newRig(t, 1, nil)
	p := r.ps[0]
	moves := func(what string, f func()) {
		t.Helper()
		e := p.PermEpoch()
		f()
		if p.PermEpoch() == e {
			t.Fatalf("%s left PermEpoch at %d", what, e)
		}
	}
	r.mustWritable(t, 0, 0x1000)
	moves("a state write", func() { p.StoreVisible(0x1000, []byte{1}) })
	r.dir.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, NackPct: 100}))
	moves("an MSHR allocation", func() { p.KeepWritable(0x2000) })
	moves("an MSHR free", func() { r.run(t) })
	if p.MSHRPending(0x2000) || p.Writable(0x2000) {
		t.Fatal("the NACKed request did not end as a plain free")
	}
	p.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, MSHRPressurePct: 50}))
	moves("an MSHR query under faults", func() { p.MSHRFree() })

	// A line starts no miss while its write-back is in flight, so the
	// write-back landing is an input too.
	r = newRig(t, 1, nil)
	p = r.ps[0]
	evictDirty(t, r, 0x0)
	moves("a write-back landing", func() {
		for p.WBPending(0x0) {
			r.q.Advance()
		}
	})
}

// TestLossEpochTracksReopenings pins the key the drain lookahead's
// watermark resets on: each way a line KeepWritable settled can need
// asking again moves LossEpoch on its own — a line leaving E/M, a miss
// freed by a NACK or by a shared fill, any free while a refusal for lack
// of an MSHR is pending, a write-back landing, and an MSHR query that
// consumes an injector decision. A new miss and a granted writable fill
// with no refusal pending settle lines and leave it where it was.
func TestLossEpochTracksReopenings(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) { c.L1D.MSHRs = 2 })
	p := r.ps[0]
	epochMoves := func(what string, want bool, f func()) {
		t.Helper()
		e := p.LossEpoch()
		f()
		if got := p.LossEpoch() != e; got != want {
			t.Fatalf("%s: LossEpoch moved = %v, want %v", what, got, want)
		}
	}
	epochMoves("a new miss", false, func() { p.KeepWritable(0x1000) })
	epochMoves("a granted writable fill", false, func() { r.run(t) })
	if !p.Writable(0x1000) {
		t.Fatal("the miss did not end writable")
	}
	epochMoves("a line leaving E/M", true, func() { r.mustWritable(t, 1, 0x1000) })

	r.mustLoad(t, 1, 0x2000, 8)
	r.load(0, 0x2000, 8, func([]byte) {})
	epochMoves("a shared fill", true, func() { r.run(t) })

	p.KeepWritable(0x3000)
	p.KeepWritable(0x4000)
	epochMoves("a refusal for lack of an MSHR", false, func() { p.KeepWritable(0x5000) })
	if p.MSHRPending(0x5000) {
		t.Fatal("a third miss started with two MSHRs")
	}
	epochMoves("a writable fill while a refusal is pending", true, func() {
		for p.MSHRPending(0x3000) && p.MSHRPending(0x4000) {
			r.q.Advance()
		}
	})
	epochMoves("the next writable fill", false, func() { r.run(t) })

	r.dir.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, NackPct: 100}))
	p.KeepWritable(0x6000)
	epochMoves("a NACK", true, func() { r.run(t) })
	if p.MSHRPending(0x6000) || p.Writable(0x6000) {
		t.Fatal("the NACKed request did not end as a plain free")
	}
	p.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, MSHRPressurePct: 50}))
	epochMoves("an MSHR query under faults", true, func() { p.MSHRFree() })

	r = newRig(t, 1, nil)
	p = r.ps[0]
	evictDirty(t, r, 0x0)
	epochMoves("a write-back landing", true, func() {
		for p.WBPending(0x0) {
			r.q.Advance()
		}
	})
}

func TestUpgradeFromShared(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mustLoad(t, 0, 0x8000, 8)
	r.mustLoad(t, 1, 0x8000, 8)
	r.mustWritable(t, 0, 0x8000)
	if !r.ps[0].Writable(0x8000) {
		t.Fatal("upgrade did not grant M")
	}
	if pl := r.ps[1].Lookup(0x8000); pl != nil && pl.State != StateI {
		t.Fatal("other sharer kept its copy across an upgrade")
	}
}

func TestUpgradePiggybacksOnInflightRead(t *testing.T) {
	r := newRig(t, 2, nil)
	// Make the line shared by the other core first so core 0's read
	// will be granted S (not E), forcing a real two-step upgrade.
	r.mustLoad(t, 1, 0x9000, 8)
	gotLoad := false
	okW := false
	r.load(0, 0x9000, 8, func([]byte) { gotLoad = true })
	r.ps[0].RequestWritable(0x9000, false, true, func(b bool) { okW = b })
	r.run(t)
	if !gotLoad || !okW {
		t.Fatalf("load=%v writable=%v", gotLoad, okW)
	}
	if !r.ps[0].Writable(0x9000) {
		t.Fatal("line not writable after piggybacked upgrade")
	}
}

func TestWritebackBufferServicesProbe(t *testing.T) {
	// 1-way L1 and 1-way L2 so eviction triggers a PutM; probe the line
	// while the writeback may be in flight.
	r := newRig(t, 2, func(c *config.Config) {
		c.L1D.SizeBytes = 64
		c.L1D.Ways = 1
		c.L2.SizeBytes = 64
		c.L2.Ways = 1
	})
	r.mustWritable(t, 0, 0x0)
	if !r.ps[0].StoreVisible(0x0, []byte{0x42}) {
		t.Fatal("store failed")
	}
	// Evict by touching another line; immediately have core 1 read the
	// dirty line.
	var got []byte
	r.load(0, 0x40, 8, func([]byte) {})
	r.load(1, 0x0, 1, func(d []byte) { got = d })
	r.run(t)
	if got == nil || got[0] != 0x42 {
		t.Fatalf("remote read during writeback = %v, want 0x42", got)
	}
}

func TestStoreVisibleListener(t *testing.T) {
	r := newRig(t, 1, nil)
	var gotLine uint64
	var gotMask Mask
	r.ps[0].OnStoreVisible = func(line uint64, mask Mask, data *LineData) {
		gotLine, gotMask = line, mask
	}
	r.mustWritable(t, 0, 0xA000)
	r.ps[0].StoreVisible(0xA004, []byte{1, 2, 3, 4})
	if gotLine != 0xA000 || gotMask != MaskFor(0xA004, 4) {
		t.Fatalf("listener saw line=%#x mask=%#x", gotLine, gotMask)
	}
}
