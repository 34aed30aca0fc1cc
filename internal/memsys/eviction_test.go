package memsys

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/faults"
)

// TestL2EvictionRecallsL1 verifies inclusion: evicting a line from the
// private L2 removes the L1 copy and writes dirty data back to the LLC.
func TestL2EvictionRecallsL1(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64
		c.L1D.Ways = 1
		c.L2.SizeBytes = 2 * 64
		c.L2.Ways = 1
	})
	r.mustWritable(t, 0, 0x0)
	if !r.ps[0].StoreVisible(0x0, []byte{0xEE}) {
		t.Fatal("store failed")
	}
	// Touch two more same-set lines: line 0 must be evicted from both
	// levels (1-way L2).
	r.mustLoad(t, 0, 0x80, 8)
	r.mustLoad(t, 0, 0x100, 8)
	if pl := r.ps[0].Lookup(0x0); pl != nil && (pl.InL1 || pl.InL2) {
		t.Fatalf("line 0 still resident: inL1=%v inL2=%v", pl.InL1, pl.InL2)
	}
	// Data must survive in the LLC (via writeback): reload and check.
	got := r.mustLoad(t, 0, 0x0, 1)
	if got[0] != 0xEE {
		t.Fatalf("reload after L2 eviction = %#x, want 0xEE", got[0])
	}
}

// TestWritebackReachesLLC asserts the directory holds the dirty data
// after an ownership-releasing eviction.
func TestWritebackReachesLLC(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 64
		c.L1D.Ways = 1
		c.L2.SizeBytes = 64
		c.L2.Ways = 1
	})
	r.mustWritable(t, 0, 0x0)
	r.ps[0].StoreVisible(0x0, []byte{0x31})
	r.mustLoad(t, 0, 0x40, 8) // evicts line 0 everywhere
	r.run(t)
	if r.ownerOf(0x0) == 0 {
		t.Fatal("directory still thinks core 0 owns the evicted line")
	}
	if d := r.dir.LLCData(0x0); d == nil || d[0] != 0x31 {
		t.Fatalf("LLC data after writeback = %v", d)
	}
}

// evictDirty makes line x modified and dirty, then fills x's L2 set
// until a fill evicts it, and stops the clock as x's write-back leaves.
func evictDirty(t *testing.T, r *rig, x uint64) {
	t.Helper()
	p := r.ps[0]
	r.mustWritable(t, 0, x)
	if !p.StoreVisible(x, []byte{0xAA}) {
		t.Fatal("store failed")
	}
	stride := uint64(r.cfg.L2.Sets()) * LineBytes
	for i := uint64(1); i < uint64(r.cfg.L2.Ways); i++ {
		r.mustLoad(t, 0, x+i*stride, 8)
	}
	r.load(0, x+uint64(r.cfg.L2.Ways)*stride, 8, func([]byte) {})
	for !p.WBPending(x) {
		r.q.Advance()
	}
}

// TestRefetchWaitsForWriteBack: a line read again while its NACKed
// write-back is still in flight must not start a miss. The directory
// still lists the core as owner, so a GetS would be granted the LLC's
// stale copy without a probe and the core would lose its own store.
func TestRefetchWaitsForWriteBack(t *testing.T) {
	r := newRig(t, 1, nil)
	p := r.ps[0]
	const x = 0x0
	evictDirty(t, r, x)
	// NACK the write-back once, then let its retry through.
	r.dir.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, NackPct: 100}))
	for end := r.q.Now() + r.dir.reqLat + 1; r.q.Now() < end; {
		r.q.Advance()
	}
	r.dir.SetFaults(nil)
	if !p.WBPending(x) {
		t.Fatal("setup: the NACKed write-back is no longer in flight")
	}
	if p.RequestWritableAs(x, false, true, 0) || p.PrefetchRead(x) {
		t.Fatal("a write or prefetch miss started during the write-back")
	}
	var got []byte
	for !r.load(0, x, 1, func(d []byte) { got = d }) {
		r.q.Advance()
	}
	r.run(t)
	if got == nil || got[0] != 0xAA {
		t.Fatalf("reload during the write-back = %v, want [0xaa]", got)
	}
}

// TestInclusionNeverViolated is a sweep: after arbitrary traffic, every
// L1-resident line must also be L2-resident.
func TestInclusionNeverViolated(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 4 * 64 * 2
		c.L1D.Ways = 2
		c.L2.SizeBytes = 8 * 64 * 2
		c.L2.Ways = 2
	})
	for i := 0; i < 200; i++ {
		addr := uint64((i * 7919) % 64 * 64)
		if i%3 == 0 {
			ok := false
			r.ps[0].RequestWritable(addr, false, true, func(b bool) { ok = b })
			r.run(t)
			if ok {
				r.ps[0].StoreVisible(addr, []byte{byte(i)})
			}
		} else {
			r.mustLoad(t, 0, addr, 1)
		}
	}
	// Inclusion check over every tracked line.
	for line := uint64(0); line < 64*64; line += 64 {
		pl := r.ps[0].Lookup(line)
		if pl == nil {
			continue
		}
		if pl.InL1 && !pl.InL2 {
			t.Fatalf("line %#x in L1 but not L2 (inclusion violated)", line)
		}
	}
}

// TestPrefetchPoolDoesNotBlockDemand fills the prefetch MSHR pool and
// verifies demand loads still start.
func TestPrefetchPoolDoesNotBlockDemand(t *testing.T) {
	r := newRig(t, 1, nil)
	issued := 0
	for i := 0; i < 100; i++ {
		if r.ps[0].PrefetchRead(uint64(0x100000 + i*64)) {
			issued++
		}
	}
	if issued == 0 {
		t.Fatal("no prefetches issued")
	}
	if issued > r.cfg.L1D.MSHRs/2 {
		t.Fatalf("prefetch pool overflow: %d issued", issued)
	}
	if !r.ps[0].MSHRFree() {
		t.Fatal("demand MSHRs exhausted by prefetches")
	}
	var got []byte
	if !r.load(0, 0x900000, 8, func(d []byte) { got = d }) {
		t.Fatal("demand load rejected while prefetch pool full")
	}
	r.run(t)
	if got == nil {
		t.Fatal("demand load never completed")
	}
}

// TestDowngradeKeepsDataClean: after a downgrade probe the old owner
// retains a readable copy and a re-upgrade works.
func TestDowngradeKeepsDataClean(t *testing.T) {
	r := newRig(t, 2, nil)
	r.mustWritable(t, 0, 0xB000)
	r.ps[0].StoreVisible(0xB000, []byte{0x66})
	r.mustLoad(t, 1, 0xB000, 1) // downgrades core 0 to S
	if got := r.mustLoad(t, 0, 0xB000, 1); got[0] != 0x66 {
		t.Fatalf("old owner's copy lost: %v", got)
	}
	r.mustWritable(t, 0, 0xB000)
	if !r.ps[0].StoreVisible(0xB001, []byte{0x77}) {
		t.Fatal("re-upgrade failed")
	}
	if got := r.mustLoad(t, 1, 0xB000, 2); got[0] != 0x66 || got[1] != 0x77 {
		t.Fatalf("remote view after re-upgrade = %v", got)
	}
}
