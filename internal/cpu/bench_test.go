package cpu

import (
	"fmt"
	"testing"

	"tusim/internal/stats"
	"tusim/internal/trace"
)

// drainSB builds a store buffer instrumented exactly like NewCore's: an
// OnPop hook that observes the drain-latency histogram and emits the
// SBDrain trace event. The returned step pushes, commits, and pops one
// store through the hook — the drain hot path in miniature.
func drainSB(tr *trace.Tracer) (sb *StoreBuffer, step func()) {
	sb = NewStoreBuffer(16, false)
	st := stats.NewSet("bench")
	hDrain := st.Histogram("sb_drain_latency")
	var cycle uint64
	sb.OnPop = func(e *SBEntry) {
		var lat uint64
		if cycle >= e.CommitCycle {
			lat = cycle - e.CommitCycle
		}
		hDrain.Observe(lat)
		tr.Emit(trace.SBDrain, 0, cycle, e.Addr, e.Seq, lat)
	}
	var seq uint64
	step = func() {
		cycle++
		e := sb.Push(seq, 0x1000+(seq%64)*8, 8)
		seq++
		sb.MarkExecuted(e)
		sb.Commit(e, cycle)
		sb.Pop()
	}
	return sb, step
}

// TestDrainPathZeroAlloc pins the ISSUE's invariant: with tracing
// disabled (the default nil tracer), the fully instrumented
// push → commit → pop drain path allocates zero bytes per store.
// Histogram observation is atomic adds and the nil-tracer Emit is a
// branch, so instrumentation costs the untraced simulator nothing.
func TestDrainPathZeroAlloc(t *testing.T) {
	_, step := drainSB(nil)
	step() // warm the histogram handle
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("disabled-tracer drain path allocates %.1f allocs/store, want 0", n)
	}
}

// TestDrainPathZeroAllocTraced: even with tracing on, the preallocated
// ring keeps the drain path allocation-free (it may drop, never grow).
func TestDrainPathZeroAllocTraced(t *testing.T) {
	_, step := drainSB(trace.New(64))
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("traced drain path allocates %.1f allocs/store, want 0", n)
	}
}

func benchDrain(b *testing.B, tr *trace.Tracer) {
	_, step := drainSB(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDrainUntraced is the production default: nil tracer.
func BenchmarkDrainUntraced(b *testing.B) { benchDrain(b, nil) }

// BenchmarkDrainTraced records every drain into the ring.
func BenchmarkDrainTraced(b *testing.B) { benchDrain(b, trace.New(1<<10)) }

// filledRing returns a ring of the given capacity holding occ executed,
// committed stores, perLine consecutive 8-byte stores to each line of a
// stream (1 = every store its own line, 8 = the streaming shape).
func filledRing(capacity, occ, perLine int) *StoreBuffer {
	sb := NewStoreBuffer(capacity, false)
	for i := 0; i < occ; i++ {
		src := SBEntry{Seq: uint64(i + 1), Addr: 0x100000 + uint64(i/perLine)*64 + uint64(i%perLine)*8, Size: 8, Executed: true, Committed: true}
		sb.PushCopy(&src)
	}
	return sb
}

var benchFwd ForwardResult

func benchSearch(b *testing.B, sb *StoreBuffer, addr uint64) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFwd, _ = sb.Search(noUnexec, addr, 8)
	}
}

// BenchmarkSBSearch is the load-side CAM lookup at the SB occupancies
// that run (a 16-deep burst, the full 114-entry SB): a load no store
// matches, a load the oldest store forwards to, and both against the
// 8-stores-per-line streaming shape.
func BenchmarkSBSearch(b *testing.B) {
	for _, occ := range []int{16, 114} {
		for _, shape := range []struct {
			name    string
			perLine int
			addr    uint64
		}{
			{"miss", 1, 0x900000},
			{"hit", 1, 0x100000},
			{"stream-miss", 8, 0x900000},
			{"stream-hit", 8, 0x100000},
		} {
			sb := filledRing(114, occ, shape.perLine)
			b.Run(fmt.Sprintf("occ%d/%s", occ, shape.name), func(b *testing.B) { benchSearch(b, sb, shape.addr) })
		}
	}
}

// BenchmarkTSOBForward is SSB's load-side search of a full 1,024-entry
// TSOB, which every load pays once per cycle it stays blocked.
func BenchmarkTSOBForward(b *testing.B) {
	for _, shape := range []struct {
		name    string
		perLine int
		addr    uint64
	}{
		{"miss", 1, 0x900000},
		{"hit-oldest", 1, 0x100000},
		{"stream-miss", 8, 0x900000},
	} {
		sb := filledRing(1024, 1024, shape.perLine)
		b.Run(shape.name, func(b *testing.B) { benchSearch(b, sb, shape.addr) })
	}
}

// BenchmarkLookaheadLines is the per-cycle drain-ahead walk at the
// baseline's depth (16) and SSB's (64), over the streaming shape.
func BenchmarkLookaheadLines(b *testing.B) {
	sb := filledRing(1024, 1024, 8)
	var lines int
	visit := func(uint64) { lines++ }
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb.LookaheadLines(k, true, visit)
			}
		})
	}
}
