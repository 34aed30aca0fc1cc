package memsys

import (
	"testing"

	"tusim/internal/config"
)

// benchRig is newRig without the testing.T plumbing, on the production
// containers: the allocation pins are about them (under -tags tus_ref
// the reference twins hand out fresh records by design).
func benchRig(cores int) *rig {
	cfg := config.Default().WithCores(cores)
	cfg.Reference = false
	return buildRig(cfg)
}

// warmLine pulls a line into the L1 in the requested writability.
func (r *rig) warmLine(b testing.TB, line uint64, writable bool) {
	b.Helper()
	done := false
	if writable {
		if !r.ps[0].RequestWritable(line, false, true, func(ok bool) { done = ok }) {
			b.Fatalf("RequestWritable(%#x) could not start", line)
		}
	} else {
		if !r.load(0, line, 8, func([]byte) { done = true }) {
			b.Fatalf("Load(%#x) could not start", line)
		}
	}
	r.q.Drain(r.q.Now() + 1_000_000)
	if !done {
		b.Fatalf("warm of %#x never completed", line)
	}
}

// BenchmarkL1LoadHit is the seq-based load path on a resident line —
// the single hottest memsys operation in a simulation.
func BenchmarkL1LoadHit(b *testing.B) {
	r := benchRig(1)
	p := r.ps[0]
	const line = 0x4000
	r.warmLine(b, line, false)
	got := 0
	p.LoadReply = func(seq, data uint64) { got++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.LoadSeq(line+uint64(i%8)*8, 8, uint64(i)) {
			b.Fatal("load did not start")
		}
		r.q.Drain(r.q.Now() + 64)
	}
	if got != b.N {
		b.Fatalf("completed %d of %d loads", got, b.N)
	}
}

// BenchmarkL1StoreHit is a visible store into a held-writable line —
// the baseline/CSB drain hot path.
func BenchmarkL1StoreHit(b *testing.B) {
	r := benchRig(1)
	p := r.ps[0]
	const line = 0x8000
	r.warmLine(b, line, true)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.StoreVisible(line+uint64(i%8)*8, buf) {
			b.Fatal("store missed a held-writable line")
		}
	}
}

// BenchmarkL1LoadMiss cycles a footprint larger than L1+L2, so loads
// take the full MSHR → directory → LLC fill round trip.
func BenchmarkL1LoadMiss(b *testing.B) {
	step, _ := loadMisses(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDirectoryProbe bounces write ownership of one line between
// two cores: every request invalidates the other core's copy, so each
// iteration pays a full directory probe round trip.
func BenchmarkDirectoryProbe(b *testing.B) {
	step := ownershipBounce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// ownershipBounce returns a step that hands write ownership of one line
// to the other of two cores, through one long-lived grant callback.
func ownershipBounce(tb testing.TB) (step func()) {
	r := benchRig(2)
	const line = 0xC000
	owned := false
	grant := func(ok bool) { owned = ok }
	i := 0
	return func() {
		owned = false
		if !r.ps[i%2].RequestWritable(line, false, true, grant) {
			tb.Fatal("request did not start")
		}
		i++
		r.q.Drain(r.q.Now() + 1_000_000)
		if !owned {
			tb.Fatal("ownership never granted")
		}
	}
}

// loadMisses returns a step that reads the next line of a footprint four
// times the L2, so every load takes the MSHR → directory → DRAM → fill
// round trip, and the footprint's size in lines.
func loadMisses(tb testing.TB) (step func(), lines int) {
	r := benchRig(1)
	p := r.ps[0]
	lines = 4 * r.cfg.L2.SizeBytes / r.cfg.L2.LineBytes
	got, i := 0, 0
	p.LoadReply = func(seq, data uint64) { got++ }
	return func() {
		i++
		if !p.LoadSeq(uint64(i%lines)<<6+0x100000, 8, uint64(i)) {
			tb.Fatal("load did not start")
		}
		r.q.Drain(r.q.Now() + 4096)
		if got != i {
			tb.Fatalf("completed %d of %d loads", got, i)
		}
	}, lines
}

// TestL1HitLoadZeroAlloc pins the tentpole invariant: the seq-based
// load path on an L1 hit performs zero allocations end to end,
// including the event-queue traffic that completes it.
func TestL1HitLoadZeroAlloc(t *testing.T) {
	r := benchRig(1)
	p := r.ps[0]
	const line = 0x4000
	r.warmLine(t, line, false)
	p.LoadReply = func(seq, data uint64) {}
	var i uint64
	step := func() {
		i++
		if !p.LoadSeq(line, 8, i) {
			t.Fatal("hit load did not start")
		}
		r.q.Drain(r.q.Now() + 64)
	}
	step() // settle the event queue's capacity
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("L1-hit load allocates %.1f allocs/op, want 0", n)
	}
}

// TestL1HitStoreZeroAlloc pins the same invariant for the visible-store
// hit path (the baseline drain's per-store work).
func TestL1HitStoreZeroAlloc(t *testing.T) {
	r := benchRig(1)
	p := r.ps[0]
	const line = 0x8000
	r.warmLine(t, line, true)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	step := func() {
		if !p.StoreVisible(line+8, buf) {
			t.Fatal("store missed a held-writable line")
		}
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("L1-hit store allocates %.1f allocs/op, want 0", n)
	}
}

// TestL1LoadMissZeroAlloc pins the miss path end to end: MSHR, directory
// transaction, DRAM queue and fill are records, so once one pass over
// the footprint has grown every pool, table and set page, a load miss
// allocates nothing.
func TestL1LoadMissZeroAlloc(t *testing.T) {
	step, lines := loadMisses(t)
	for i := 0; i < lines; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("L1 load miss allocates %.1f allocs/op, want 0", n)
	}
}

// TestDirectoryProbeZeroAlloc pins the probe fan-out: a GetM that
// invalidates the other core's copy — request, probe, answer with data,
// grant — allocates nothing, the requester's callback included.
func TestDirectoryProbeZeroAlloc(t *testing.T) {
	step := ownershipBounce(t)
	step()
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("ownership bounce allocates %.1f allocs/op, want 0", n)
	}
}
