package memsys

import (
	"testing"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/faults"
)

// fakeHandler scripts the authorization unit's decisions for tests.
type fakeHandler struct {
	action       ProbeAction
	probed       []uint64
	filled       []uint64
	relinquished []uint64
}

func (f *fakeHandler) HandleProbe(line uint64) ProbeAction {
	f.probed = append(f.probed, line)
	return f.action
}
func (f *fakeHandler) HandleFill(line uint64)       { f.filled = append(f.filled, line) }
func (f *fakeHandler) HandleRelinquish(line uint64) { f.relinquished = append(f.relinquished, line) }

func TestUnauthorizedStoreThenFillMerges(t *testing.T) {
	r := newRig(t, 1, nil)
	h := &fakeHandler{}
	r.ps[0].SetHandler(h)

	var seed LineData
	for i := range seed {
		seed[i] = 0x10
	}
	r.mem.WriteLine(0xB000, &seed)

	// Write 4 bytes without permission: always-hit illusion.
	if !r.ps[0].StoreUnauthorizedLine(lineStore(0xB008, []byte{1, 2, 3, 4})) {
		t.Fatal("unauthorized store failed")
	}
	pl := r.ps[0].Lookup(0xB000)
	if !pl.NotVisible || pl.Ready {
		t.Fatalf("line flags: notVisible=%v ready=%v", pl.NotVisible, pl.Ready)
	}
	if pl.UMask != MaskFor(0xB008, 4) {
		t.Fatalf("UMask = %#x", pl.UMask)
	}

	// Request permission; on fill, memory data merges around the mask.
	var granted bool
	r.ps[0].RequestWritable(0xB000, false, false, func(ok bool) { granted = ok })
	r.run(t)
	if !granted {
		t.Fatal("permission not granted")
	}
	if !pl.Ready || !pl.NotVisible {
		t.Fatalf("after fill: notVisible=%v ready=%v", pl.NotVisible, pl.Ready)
	}
	if len(h.filled) != 1 || h.filled[0] != 0xB000 {
		t.Fatalf("HandleFill calls = %v", h.filled)
	}
	// Merged contents: memory bytes outside the mask, store bytes inside.
	if pl.L1Data[7] != 0x10 || pl.L1Data[8] != 1 || pl.L1Data[11] != 4 || pl.L1Data[12] != 0x10 {
		t.Fatalf("merge wrong: %v", pl.L1Data[:16])
	}
	// The L2 copy is the unmodified (authorized) version.
	if pl.L2Data[8] != 0x10 {
		t.Fatal("L2 must hold the unmodified authorized copy")
	}

	// Publish and verify the visibility listener fires with the mask.
	var visMask Mask
	r.ps[0].OnStoreVisible = func(line uint64, mask Mask, data *LineData) { visMask = mask }
	r.ps[0].MakeVisible(0xB000)
	if visMask != MaskFor(0xB008, 4) {
		t.Fatalf("visibility mask = %#x", visMask)
	}
	if pl.NotVisible || pl.State != StateM || !pl.L1Dirty {
		t.Fatal("MakeVisible left wrong state")
	}
}

func TestUnauthorizedStoreCoalescesOnHit(t *testing.T) {
	r := newRig(t, 1, nil)
	r.ps[0].SetHandler(&fakeHandler{})
	r.ps[0].StoreUnauthorizedLine(lineStore(0xC000, []byte{1}))
	r.ps[0].StoreUnauthorizedHitLine(lineStore(0xC001, []byte{2}))
	pl := r.ps[0].Lookup(0xC000)
	if pl.UMask != 0x3 {
		t.Fatalf("UMask = %#x, want 0x3", pl.UMask)
	}
	if pl.L1Data[0] != 1 || pl.L1Data[1] != 2 {
		t.Fatal("coalesced data wrong")
	}
}

func TestLoadToUnauthorizedLineWaitsForPermission(t *testing.T) {
	r := newRig(t, 1, nil)
	r.ps[0].SetHandler(&fakeHandler{})
	var seed LineData
	seed[0] = 0x55
	r.mem.WriteLine(0xD000, &seed)

	r.ps[0].StoreUnauthorizedLine(lineStore(0xD008, []byte{7}))
	var got []byte
	r.load(0, 0xD000, 1, func(d []byte) { got = d })
	r.q.Drain(r.q.Now() + 10)
	if got != nil {
		t.Fatal("load to not-ready unauthorized line must wait")
	}
	r.ps[0].RequestWritable(0xD000, false, false, nil)
	r.run(t)
	if got == nil || got[0] != 0x55 {
		t.Fatalf("aliased load = %v, want 0x55 after permission", got)
	}
}

func TestProbeDelayNacksRequester(t *testing.T) {
	r := newRig(t, 2, nil)
	h := &fakeHandler{action: ActionDelay}
	r.ps[0].SetHandler(h)
	r.ps[1].SetHandler(&fakeHandler{})

	// Core 0 gets an unauthorized line ready (permission held, not visible).
	r.ps[0].StoreUnauthorizedLine(lineStore(0xE000, []byte{9}))
	r.ps[0].RequestWritable(0xE000, false, false, nil)
	r.run(t)

	// Core 1 wants the line; core 0's authorization unit delays.
	nacks := 0
	granted := false
	var attempt event.Func2
	attempt = func(_, _ uint64) {
		r.ps[1].RequestWritable(0xE000, false, false, func(ok bool) {
			if ok {
				granted = true
				return
			}
			nacks++
			if nacks == 3 {
				// After a few NACKs core 0 publishes; then retry succeeds.
				r.ps[0].MakeVisible(0xE000)
			}
			if nacks < 10 {
				r.q.After2(50, attempt, 0, 0)
			}
		})
	}
	attempt(0, 0)
	r.run(t)
	if nacks < 3 {
		t.Fatalf("nacks = %d, want >= 3", nacks)
	}
	if !granted {
		t.Fatal("request never granted after line became visible")
	}
	if len(h.probed) == 0 {
		t.Fatal("authorization unit never consulted")
	}
	// Ownership transferred with the *new* data (line was visible by then).
	var got []byte
	r.load(1, 0xE000, 1, func(d []byte) { got = d })
	r.run(t)
	if got[0] != 9 {
		t.Fatalf("transferred data = %v, want visible store value 9", got)
	}
}

func TestProbeRelinquishServesStaleData(t *testing.T) {
	r := newRig(t, 2, nil)
	h := &fakeHandler{action: ActionRelinquish}
	r.ps[0].SetHandler(h)
	r.ps[1].SetHandler(&fakeHandler{})

	var seed LineData
	seed[0] = 0x33
	r.mem.WriteLine(0xF000, &seed)

	r.ps[0].StoreUnauthorizedLine(lineStore(0xF000, []byte{0x99}))
	r.ps[0].RequestWritable(0xF000, false, false, nil)
	r.run(t)
	pl := r.ps[0].Lookup(0xF000)
	if !pl.Ready {
		t.Fatal("setup: line should be ready")
	}

	// Core 1 requests: core 0 relinquishes; core 1 must see the OLD data.
	var got []byte
	r.load(1, 0xF000, 1, func(d []byte) { got = d })
	r.run(t)
	if got == nil || got[0] != 0x33 {
		t.Fatalf("requester saw %v, want stale 0x33", got)
	}
	// Core 0 keeps its unauthorized data but lost permission and ready.
	if !pl.NotVisible || pl.Ready || pl.State != StateI {
		t.Fatalf("relinquished line state: notVisible=%v ready=%v state=%v", pl.NotVisible, pl.Ready, pl.State)
	}
	if pl.L1Data[0] != 0x99 {
		t.Fatal("unauthorized data lost on relinquish")
	}
	if len(h.relinquished) != 1 || h.relinquished[0] != 0xF000 {
		t.Fatalf("HandleRelinquish calls = %v", h.relinquished)
	}

	// Re-acquiring merges the *updated* remote data around the mask.
	r.mustWritable(t, 1, 0xF000)
	r.ps[1].StoreVisible(0xF001, []byte{0x44})
	var granted bool
	r.ps[0].RequestWritable(0xF000, false, false, func(ok bool) { granted = ok })
	r.run(t)
	if !granted {
		t.Fatal("re-request not granted")
	}
	if pl.L1Data[0] != 0x99 || pl.L1Data[1] != 0x44 {
		t.Fatalf("re-merge wrong: %v (want own 0x99 + remote 0x44)", pl.L1Data[:2])
	}
}

func TestNotVisibleLineNotEvictable(t *testing.T) {
	// Single-way L1: the unauthorized line pins its set; a conflicting
	// load must not displace it (there is no other copy of that data).
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64
		c.L1D.Ways = 1
	})
	r.ps[0].SetHandler(&fakeHandler{})
	if !r.ps[0].StoreUnauthorizedLine(lineStore(0x0, []byte{1})) {
		t.Fatal("unauthorized store failed")
	}
	var got []byte
	r.load(0, 0x80, 8, func(d []byte) { got = d }) // same set
	r.run(t)
	pl := r.ps[0].Lookup(0x0)
	if pl == nil || !pl.InL1 || !pl.NotVisible {
		t.Fatal("not-visible line was evicted")
	}
	if got == nil {
		t.Fatal("conflicting load never completed (it may stay in L2 only)")
	}
	// A second unauthorized store to that set must be refused.
	if r.ps[0].StoreUnauthorizedLine(lineStore(0x100, []byte{2})) {
		t.Fatal("unauthorized store succeeded with no free way")
	}
}

func TestL1WaysAvailable(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64 * 2 // 2 sets x 2 ways
		c.L1D.Ways = 2
	})
	r.ps[0].SetHandler(&fakeHandler{})
	// Lines 0x0, 0x80, 0x100 map to set 0; 0x40 to set 1.
	if !r.ps[0].L1WaysAvailable([]uint64{0x0, 0x80}, false) {
		t.Fatal("2 lines into a 2-way set should fit")
	}
	if r.ps[0].L1WaysAvailable([]uint64{0x0, 0x80, 0x100}, false) {
		t.Fatal("3 lines cannot fit a 2-way set")
	}
	if !r.ps[0].L1WaysAvailable([]uint64{0x0, 0x80, 0x40}, false) {
		t.Fatal("split across sets should fit")
	}
	// Pin one way with an unauthorized line: only 1 slot left in set 0.
	r.ps[0].StoreUnauthorizedLine(lineStore(0x0, []byte{1}))
	if !r.ps[0].L1WaysAvailable([]uint64{0x80}, false) {
		t.Fatal("one free way remains")
	}
	if r.ps[0].L1WaysAvailable([]uint64{0x80, 0x100}, false) {
		t.Fatal("pinned way must reduce availability")
	}
	// The resident line itself still counts as available.
	if !r.ps[0].L1WaysAvailable([]uint64{0x0, 0x80}, false) {
		t.Fatal("resident line counts as satisfied")
	}
}

// TestL1WaysAvailablePinsResidentLines: when the write pins every line
// (TUS), a resident line that is not yet pinned needs its way, and a
// line that is already pinned is counted once.
func TestL1WaysAvailablePinsResidentLines(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64 * 2 // 2 sets x 2 ways
		c.L1D.Ways = 2
	})
	p := r.ps[0]
	r.mustLoad(t, 0, 0x80, 8)
	p.StoreUnauthorizedLine(lineStore(0x0, []byte{1}))
	if pl := p.Lookup(0x80); pl == nil || !pl.InL1 || pl.pinned() {
		t.Fatal("setup: 0x80 is not resident and unpinned")
	}
	// Set 0 holds 0x0 (pinned) and 0x80 (resident, unpinned).
	if !p.L1WaysAvailable([]uint64{0x80, 0x100}, false) {
		t.Fatal("a visible write reuses 0x80's way")
	}
	if p.L1WaysAvailable([]uint64{0x80, 0x100}, true) {
		t.Fatal("pinning 0x80 and 0x100 beside 0x0 needs three ways")
	}
	if !p.L1WaysAvailable([]uint64{0x0, 0x80}, true) {
		t.Fatal("the pinned 0x0 and the resident 0x80 fit their two ways")
	}
}

// TestL1WaysAvailableInFlightPin: a way pinned only by a miss in flight
// (an S line with a GetM upgrade pending) is neither available to a
// group nor chosen as a victim, and is evictable again once the miss
// ends, by a fill or by a NACK that frees it.
func TestL1WaysAvailableInFlightPin(t *testing.T) {
	r := newRig(t, 2, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64 * 2 // 2 sets x 2 ways
		c.L1D.Ways = 2
	})
	p := r.ps[0]
	// 0x0 is shared with core 1, so core 0 holds it S; 0x80 then takes
	// set 0's other way, which leaves 0x0 the LRU way.
	r.mustLoad(t, 1, 0x0, 8)
	r.mustLoad(t, 0, 0x0, 8)
	r.mustLoad(t, 0, 0x80, 8)
	pl, other := p.Lookup(0x0), p.Lookup(0x80)
	if pl.State != StateS || !pl.InL1 || !other.InL1 {
		t.Fatalf("setup: 0x0 is %v (in L1 %v), 0x80 in L1 %v", pl.State, pl.InL1, other.InL1)
	}
	check := func(inFlight bool, when string) {
		t.Helper()
		if (pl.mshr != 0) != inFlight || p.MSHRPending(0x0) != inFlight {
			t.Fatalf("%s: in-flight bit %v, MSHR pending %v, want %v", when, pl.mshr != 0, p.MSHRPending(0x0), inFlight)
		}
		// Two new set-0 lines need both ways, so 0x0 must be evictable.
		if got := p.L1WaysAvailable([]uint64{0x100, 0x180}, false); got == inFlight {
			t.Fatalf("%s: L1WaysAvailable = %v", when, got)
		}
		victim := pl
		if inFlight {
			victim = other
		}
		if got := p.pickL1Victim(p.l1.ways(p.l1.of(0x0))); got != victim {
			t.Fatalf("%s: victim %#x, want %#x", when, got.Line, victim.Line)
		}
	}
	check(false, "shared, nothing in flight")

	p.RequestWritable(0x0, false, true, nil)
	check(true, "upgrade in flight")
	r.run(t)
	if pl.State != StateM {
		t.Fatalf("upgrade ended in %v", pl.State)
	}
	check(false, "after the fill")

	// Share it again, then let the directory NACK a one-shot upgrade.
	r.mustLoad(t, 1, 0x0, 8)
	r.dir.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, NackPct: 100}))
	p.RequestWritable(0x0, false, false, nil)
	check(true, "upgrade in flight, to be NACKed")
	r.run(t)
	if pl.State != StateS {
		t.Fatalf("NACKed upgrade left %v", pl.State)
	}
	check(false, "after the NACK freed the miss")
}

// TestInFlightBitSeededOnNewLine: a miss creates its line's record, so
// an untracked line is tracked and in flight from the miss's allocation
// and not after the fill; a NACKed one-shot miss with no loads waiting
// leaves no record behind.
func TestInFlightBitSeededOnNewLine(t *testing.T) {
	r := newRig(t, 1, nil)
	p := r.ps[0]
	r.load(0, 0x5000, 8, func([]byte) {})
	if pl := p.Lookup(0x5000); pl == nil || pl.mshr == 0 || !p.MSHRPending(0x5000) {
		t.Fatal("a read miss must track its line, in flight")
	}
	r.run(t)
	if pl := p.Lookup(0x5000); pl == nil || pl.mshr != 0 || p.MSHRPending(0x5000) {
		t.Fatal("the fill must keep the line and end the miss")
	}

	r.dir.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, NackPct: 100}))
	p.RequestWritable(0x6000, false, false, nil)
	if pl := p.Lookup(0x6000); pl == nil || pl.mshr == 0 {
		t.Fatal("a write miss must track its line, in flight")
	}
	r.run(t)
	if pl := p.Lookup(0x6000); pl != nil || p.MSHRPending(0x6000) {
		t.Fatalf("a NACKed miss with no loads left a record: %+v", pl)
	}
}

// TestL1WaysAvailableMatchesPerSetCount: over every group of up to four
// lines (duplicates included) drawn from two sets, on a machine with
// free, resident and pinned ways, L1WaysAvailable gives the verdict of
// a plain per-set count.
func TestL1WaysAvailableMatchesPerSetCount(t *testing.T) {
	r := newRig(t, 1, func(c *config.Config) {
		c.L1D.SizeBytes = 2 * 64 * 2 // 2 sets x 2 ways
		c.L1D.Ways = 2
	})
	p := r.ps[0]
	p.SetHandler(&fakeHandler{})
	perSet := func(lines []uint64) bool {
		need := map[uint64]int{}
		for _, ln := range lines {
			if pl := p.Lookup(ln); pl == nil || !pl.InL1 {
				need[(ln>>6)%2]++
			}
		}
		for set, n := range need {
			avail := 2
			for _, v := range p.l1.ways(set) {
				if v.NotVisible || p.MSHRPending(v.Line) || len(v.loadWaiters) > 0 {
					avail--
				}
			}
			if avail < n {
				return false
			}
		}
		return true
	}
	pool := []uint64{0x0, 0x40, 0x80, 0xC0, 0x100, 0x140} // sets 0,1,0,1,0,1
	var group []uint64
	var walk func(when string)
	walk = func(when string) {
		if len(group) > 0 {
			if got, want := p.L1WaysAvailable(group, false), perSet(group); got != want {
				t.Fatalf("%s: L1WaysAvailable(%#x) = %v, per-set count says %v", when, group, got, want)
			}
		}
		if len(group) == 4 {
			return
		}
		for _, ln := range pool {
			group = append(group, ln)
			walk(when)
			group = group[:len(group)-1]
		}
	}
	walk("empty L1")
	r.mustLoad(t, 0, 0x40, 8) // resident, evictable
	r.mustLoad(t, 0, 0x80, 8)
	walk("two resident lines")
	p.StoreUnauthorizedLine(lineStore(0x0, []byte{1})) // pinned, not visible
	walk("one way of set 0 pinned")
	p.StoreUnauthorizedLine(lineStore(0x140, []byte{1}))
	p.StoreUnauthorizedLine(lineStore(0xC0, []byte{1}))
	walk("set 1 fully pinned")
}

// TestL1WaysAvailableZeroAlloc pins the admission check TUS and CSB run
// on every group attempt: judging a group allocates nothing.
func TestL1WaysAvailableZeroAlloc(t *testing.T) {
	r := newRig(t, 1, nil)
	p := r.ps[0]
	p.SetHandler(&fakeHandler{})
	r.mustLoad(t, 0, 0x1000, 8)
	p.StoreUnauthorizedLine(lineStore(0x2000, []byte{1}))
	sets := uint64(r.cfg.L1D.Sets()) << 6 // stride between lines of one set
	// A full 16-line group over twelve sets, one of them three deep,
	// with a resident line, a pinned one and a duplicate.
	group := []uint64{0x1000, 0x2000, 0x3000, 0x3000 + sets, 0x3000 + 2*sets, 0x3000}
	for ln := uint64(0x4000); len(group) < 16; ln += 64 {
		group = append(group, ln)
	}
	if !p.L1WaysAvailable(group, false) {
		t.Fatal("the group should fit")
	}
	if n := testing.AllocsPerRun(1000, func() { p.L1WaysAvailable(group, false) }); n != 0 {
		t.Fatalf("L1WaysAvailable allocates %.1f allocs/op, want 0", n)
	}
}

// TestStoreOverVisibleLine drives Fig. 7 (3), the authorized hit: the
// old copy goes down to the private L2 first, the new bytes land in L1
// and the line turns not-visible but ready with UMask replaced.
func TestStoreOverVisibleLine(t *testing.T) {
	r := newRig(t, 1, nil)
	p := r.ps[0]
	p.SetHandler(&fakeHandler{})
	var seed LineData
	for i := range seed {
		seed[i] = 0x10
	}
	r.mem.WriteLine(0xB000, &seed)

	if p.StoreOverVisibleLine(lineStore(0xB008, []byte{1, 2})) {
		t.Fatal("authorized-hit path accepted a line held without permission")
	}
	// A full unauthorized lifecycle first, so the line has carried a
	// mask (bytes 0-3) before: it must not leak into the next one.
	p.StoreUnauthorizedLine(lineStore(0xB000, []byte{0xA0, 0xA1, 0xA2, 0xA3}))
	r.mustWritable(t, 0, 0xB000)
	p.MakeVisible(0xB000)
	pl := p.Lookup(0xB000)
	if pl.NotVisible || pl.UMask != 0 || pl.State != StateM {
		t.Fatalf("setup: notVisible=%v umask=%#x state=%v", pl.NotVisible, pl.UMask, pl.State)
	}

	updates := p.st.Get("l2_updates")
	if !p.StoreOverVisibleLine(lineStore(0xB008, []byte{1, 2})) {
		t.Fatal("authorized hit on a modified line refused")
	}
	if !pl.NotVisible || !pl.Ready || pl.State != StateM {
		t.Fatalf("after authorized hit: notVisible=%v ready=%v state=%v", pl.NotVisible, pl.Ready, pl.State)
	}
	if pl.UMask != MaskFor(0xB008, 2) {
		t.Fatalf("UMask = %#x, want exactly the new store's %#x", pl.UMask, MaskFor(0xB008, 2))
	}
	// L2 holds the old authorized copy: the published bytes, not the new ones.
	if pl.L2Data[0] != 0xA0 || pl.L2Data[3] != 0xA3 || pl.L2Data[8] != 0x10 || !pl.L2Dirty {
		t.Fatalf("L2 copy = %v dirty=%v, want the pre-store line", pl.L2Data[:12], pl.L2Dirty)
	}
	if pl.L1Data[0] != 0xA0 || pl.L1Data[8] != 1 || pl.L1Data[9] != 2 || pl.L1Data[10] != 0x10 {
		t.Fatalf("L1 copy = %v", pl.L1Data[:12])
	}
	if got := p.st.Get("l2_updates"); got != updates+1 {
		t.Fatalf("l2_updates = %d, want %d", got, updates+1)
	}
	// A second store now is a store-cycle hit, not another authorized hit.
	if p.StoreOverVisibleLine(lineStore(0xB010, []byte{3})) {
		t.Fatal("authorized-hit path accepted a not-visible line")
	}
	// Ready lines serve loads from the L1 copy.
	if got := r.mustLoad(t, 0, 0xB008, 2); got[0] != 1 || got[1] != 2 {
		t.Fatalf("load from ready line = %v", got)
	}
}

// TestStoreVisibleLine drives CSB's atomic group write: a coalesced mask
// with a hole lands in a writable line and is visible at once.
func TestStoreVisibleLine(t *testing.T) {
	r := newRig(t, 1, nil)
	p := r.ps[0]
	var seed LineData
	for i := range seed {
		seed[i] = 0x10
	}
	r.mem.WriteLine(0xA000, &seed)
	var gotLine uint64
	var gotMask Mask
	p.OnStoreVisible = func(line uint64, mask Mask, data *LineData) { gotLine, gotMask = line, mask }

	line, data, mask := lineStore(0xA004, []byte{1, 2})
	_, hi, hiMask := lineStore(0xA020, []byte{7})
	Merge(data, hi, hiMask)
	mask |= hiMask
	if p.StoreVisibleLine(line, data, mask) {
		t.Fatal("group write succeeded without permission")
	}
	r.mustWritable(t, 0, 0xA000)
	if !p.StoreVisibleLine(line, data, mask) {
		t.Fatal("group write failed with M permission")
	}
	pl := p.Lookup(0xA000)
	if pl.State != StateM || !pl.L1Dirty || pl.NotVisible {
		t.Fatalf("state=%v l1Dirty=%v notVisible=%v", pl.State, pl.L1Dirty, pl.NotVisible)
	}
	if pl.L1Data[3] != 0x10 || pl.L1Data[4] != 1 || pl.L1Data[5] != 2 || pl.L1Data[6] != 0x10 || pl.L1Data[0x20] != 7 {
		t.Fatalf("masked merge wrong: %v", pl.L1Data[:0x22])
	}
	if gotLine != 0xA000 || gotMask != mask {
		t.Fatalf("listener saw line=%#x mask=%#x, want mask %#x", gotLine, gotMask, mask)
	}
	if got := p.st.Get("l1d_writes"); got != 1 {
		t.Fatalf("l1d_writes = %d, want 1", got)
	}
}
