package wcb

import (
	"testing"
	"testing/quick"
)

func TestLex(t *testing.T) {
	// Lex is the low bits of the line number (address >> 6).
	if Lex(0x12340, 16) != 0x48D {
		t.Fatalf("Lex = %#x", Lex(0x12340, 16))
	}
	// Lines 2^16 line-numbers apart share a lex key.
	a := uint64(0x1000)
	b := a + (1 << 16 * 1 << 6) // same low 16 bits of line number
	_ = b
	if Lex(a, 16) != Lex(a+(uint64(1)<<22), 16) {
		t.Fatal("lines 2^16 lines apart must collide in lex space")
	}
	if Lex(a, 16) == Lex(a+64, 16) {
		t.Fatal("adjacent lines must not collide")
	}
}

func TestInsertCoalescesSameLine(t *testing.T) {
	s := NewSet(2, 16)
	if r := s.Insert(0x1000, []byte{1, 2}); r != Inserted {
		t.Fatalf("first insert = %v", r)
	}
	if r := s.Insert(0x1008, []byte{3}); r != Inserted {
		t.Fatalf("coalescing insert = %v", r)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (coalesced)", s.Len())
	}
	g := s.OldestGroup()
	if len(g) != 1 || g[0].Mask != 0x103 {
		t.Fatalf("group = %+v", g)
	}
	if g[0].Data[0] != 1 || g[0].Data[1] != 2 || g[0].Data[8] != 3 {
		t.Fatal("coalesced data wrong")
	}
}

func TestInsertSecondLineNewGroup(t *testing.T) {
	s := NewSet(2, 16)
	s.Insert(0x1000, []byte{1})
	s.Insert(0x2000, []byte{2})
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	g := s.OldestGroup()
	if len(g) != 1 || g[0].Line != 0x1000 {
		t.Fatalf("oldest group = %+v (want only line 0x1000)", g)
	}
}

func TestNeedFlushWhenFull(t *testing.T) {
	s := NewSet(2, 16)
	s.Insert(0x1000, []byte{1})
	s.Insert(0x2000, []byte{2})
	if r := s.Insert(0x3000, []byte{3}); r != NeedFlush {
		t.Fatalf("insert into full set = %v, want NeedFlush", r)
	}
}

func TestCycleFormsAtomicGroup(t *testing.T) {
	// A, B, A: writing A after B hit a non-last buffer -> cycle -> one
	// atomic group (Sec. III-B, Fig. 4).
	s := NewSet(2, 16)
	s.Insert(0x1000, []byte{1}) // A
	s.Insert(0x2000, []byte{2}) // B (last written)
	if r := s.Insert(0x1008, []byte{3}); r != Inserted {
		t.Fatalf("cycle insert = %v", r)
	}
	g := s.OldestGroup()
	if len(g) != 2 {
		t.Fatalf("atomic group size = %d, want 2", len(g))
	}
}

func TestNoCycleOnRepeatedLastBuffer(t *testing.T) {
	// A, B, B: hitting the last-written buffer is plain coalescing.
	s := NewSet(2, 16)
	s.Insert(0x1000, []byte{1})
	s.Insert(0x2000, []byte{2})
	s.Insert(0x2008, []byte{3})
	if len(s.OldestGroup()) != 1 {
		t.Fatal("repeated last-buffer write must not merge groups")
	}
}

func TestLexConflictBlocksCycle(t *testing.T) {
	// Two lines 2^22 bytes apart share a lex key (16 bits of line
	// number); a cycle merging them must be refused.
	s := NewSet(2, 16)
	a := uint64(0x40000000)
	b := a + (uint64(1) << 22)
	if Lex(a, 16) != Lex(b, 16) {
		t.Fatal("test setup: lines must collide in lex space")
	}
	s.Insert(a, []byte{1})
	s.Insert(b, []byte{2})
	if r := s.Insert(a+8, []byte{3}); r != LexConflict {
		t.Fatalf("cycle with lex conflict = %v, want LexConflict", r)
	}
}

func TestRelease(t *testing.T) {
	s := NewSet(2, 16)
	s.Insert(0x1000, []byte{1})
	s.Insert(0x2000, []byte{2})
	g := s.OldestGroup()
	s.Release(g)
	if s.Len() != 1 {
		t.Fatalf("Len after release = %d", s.Len())
	}
	if r := s.Insert(0x3000, []byte{3}); r != Inserted {
		t.Fatalf("insert after release = %v", r)
	}
}

func TestForward(t *testing.T) {
	s := NewSet(2, 16)
	s.Insert(0x1000, []byte{9, 8, 7, 6, 5, 4, 3, 2})
	hit, conflict, out := s.Forward(0x1002, 2)
	if !hit || conflict {
		t.Fatalf("hit=%v conflict=%v", hit, conflict)
	}
	if out[0] != 7 || out[1] != 6 {
		t.Fatalf("forwarded = %v", out[:2])
	}
	// Partial coverage -> conflict.
	_, conflict, _ = s.Forward(0x1006, 4)
	if !conflict {
		t.Fatal("partially covered load must conflict")
	}
	// Other line -> miss.
	hit, conflict, _ = s.Forward(0x9000, 8)
	if hit || conflict {
		t.Fatal("unrelated load must miss")
	}
}

func TestGroupFlushOrderIsOldestFirst(t *testing.T) {
	s := NewSet(2, 16)
	s.Insert(0x2000, []byte{1}) // older
	s.Insert(0x1000, []byte{2}) // younger (lower address - irrelevant)
	g := s.OldestGroup()
	if len(g) != 1 || g[0].Line != 0x2000 {
		t.Fatalf("oldest group = line %#x, want 0x2000", g[0].Line)
	}
}

// Property: after any sequence of inserts, all valid buffers hold
// distinct lines, and every group's lines are lex-distinct.
func TestInvariantsUnderRandomInserts(t *testing.T) {
	f := func(addrs []uint16) bool {
		s := NewSet(2, 16)
		for _, a := range addrs {
			addr := uint64(a) * 8
			r := s.Insert(addr, []byte{byte(a)})
			if r == NeedFlush || r == LexConflict {
				g := s.OldestGroup()
				if g == nil {
					return false
				}
				s.Release(g)
				s.Insert(addr, []byte{byte(a)})
			}
			// Check distinct lines.
			seen := map[uint64]bool{}
			for _, b := range s.bufs {
				if !b.Valid {
					continue
				}
				if seen[b.Line] {
					return false
				}
				seen[b.Line] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWCBCoalesce is the TUS drain's per-store WCB work: insert
// into a warm buffer (same line, so every store coalesces) plus the
// forwarding search loads pay.
func BenchmarkWCBCoalesce(b *testing.B) {
	s := NewSet(2, 16)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Insert(0x4000+uint64(i%8)*8, buf) != Inserted {
			b.Fatal("coalescing store did not insert")
		}
	}
}

// BenchmarkWCBGroupFlush forms a two-line group and releases it — the
// per-group admission rhythm of a TUS drain under line churn.
func BenchmarkWCBGroupFlush(b *testing.B) {
	s := NewSet(2, 16)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(0x4000, buf)
		s.Insert(0x8040, buf)
		g := s.OldestGroup()
		if g == nil {
			b.Fatal("no group to flush")
		}
		s.Release(g)
	}
}

// TestWCBCoalesceZeroAlloc pins the WCB insert/forward/flush cycle at
// zero steady-state allocations.
func TestWCBCoalesceZeroAlloc(t *testing.T) {
	s := NewSet(2, 16)
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	step := func() {
		s.Insert(0x4000, buf)
		s.Insert(0x8040, buf)
		if hit, _, _ := s.Forward(0x4000, 8); !hit {
			t.Fatal("forward missed a coalesced store")
		}
		g := s.OldestGroup()
		if g == nil {
			t.Fatal("no group")
		}
		s.Release(g)
	}
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("WCB insert/forward/flush allocates %.1f allocs/op, want 0", n)
	}
}
