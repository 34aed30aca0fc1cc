package cpu

import (
	"fmt"
	"testing"
	"testing/quick"
)

func execStore(sb *StoreBuffer, seq, addr uint64, size uint8, data [8]byte) *SBEntry {
	e := sb.Push(seq, addr, size)
	e.Data = data
	sb.MarkExecuted(e)
	return e
}

func TestSBPushPop(t *testing.T) {
	sb := NewStoreBuffer(3, false)
	if !sb.Empty() || sb.Full() || sb.capacity != 3 {
		t.Fatal("fresh SB state wrong")
	}
	sb.Push(1, 0x100, 8)
	sb.Push(2, 0x200, 8)
	sb.Push(3, 0x300, 8)
	if !sb.Full() || sb.Len() != 3 {
		t.Fatal("SB should be full")
	}
	if sb.Head().Seq != 1 {
		t.Fatalf("head seq = %d", sb.Head().Seq)
	}
	sb.Pop()
	if sb.Head().Seq != 2 || sb.Len() != 2 {
		t.Fatal("pop did not advance head")
	}
	// Ring wrap.
	sb.Push(4, 0x400, 8)
	sb.Pop()
	sb.Pop()
	if sb.Head().Seq != 4 {
		t.Fatalf("head after wrap = %d", sb.Head().Seq)
	}
}

// TestSBGen: the generation the drain lookahead keys on moves on a
// commit, a pop and a copy-in push, and not on a plain push or a
// rejected one.
func TestSBGen(t *testing.T) {
	sb := NewStoreBuffer(2, false)
	step := func(what string, moves bool, f func()) {
		t.Helper()
		g := sb.Gen()
		f()
		if (sb.Gen() != g) != moves {
			t.Fatalf("%s: generation %d -> %d, want moved=%v", what, g, sb.Gen(), moves)
		}
	}
	var e *SBEntry
	step("push", false, func() { e = execStore(sb, 1, 0x100, 8, [8]byte{}) })
	step("commit", true, func() { sb.Commit(e, 7) })
	if !e.Committed || e.CommitCycle != 7 {
		t.Fatalf("Commit left %+v", *e)
	}
	step("copy-in push", true, func() { sb.PushCopy(e) })
	step("rejected copy-in push", false, func() { sb.PushCopy(e) })
	step("pop", true, sb.Pop)
}

func TestSBOverflowCounted(t *testing.T) {
	sb := NewStoreBuffer(1, false)
	if sb.Push(1, 0, 8) == nil {
		t.Fatal("push into empty SB failed")
	}
	if e := sb.Push(2, 64, 8); e != nil {
		t.Fatalf("push into full SB returned %v, want nil", e)
	}
	if sb.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", sb.Overflows)
	}
	// The buffer itself is untouched by the rejected push.
	if sb.Len() != 1 || sb.Head().Seq != 1 {
		t.Fatal("rejected push corrupted the SB")
	}
}

func TestSBForwardHit(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	execStore(sb, 1, 0x100, 8, [8]byte{1, 2, 3, 4, 5, 6, 7, 8})
	res, data := sb.Search(5, 0x104, 4)
	if res != FwdHit {
		t.Fatalf("res = %v", res)
	}
	if data[0] != 5 || data[3] != 8 {
		t.Fatalf("forwarded data = %v", data)
	}
}

func TestSBForwardYoungestWins(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	execStore(sb, 1, 0x100, 8, [8]byte{1, 1, 1, 1, 1, 1, 1, 1})
	execStore(sb, 2, 0x100, 8, [8]byte{2, 2, 2, 2, 2, 2, 2, 2})
	res, data := sb.Search(9, 0x100, 8)
	if res != FwdHit || data[0] != 2 {
		t.Fatalf("res=%v data=%v; youngest store must forward", res, data)
	}
}

func TestSBForwardOnlyOlderStores(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	execStore(sb, 10, 0x100, 8, [8]byte{9})
	res, _ := sb.Search(5, 0x100, 8)
	if res != FwdMiss {
		t.Fatalf("res = %v; a load must not see younger stores", res)
	}
}

func TestSBPartialOverlapConflicts(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	execStore(sb, 1, 0x100, 4, [8]byte{1, 2, 3, 4})
	res, _ := sb.Search(5, 0x102, 4) // bytes 2-5; store covers 0-3
	if res != FwdConflict {
		t.Fatalf("res = %v, want conflict on partial overlap", res)
	}
}

func TestSBUnexecutedStoreBlocks(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	sb.Push(1, 0x900, 8) // address "unknown"
	res, _ := sb.Search(5, 0x100, 8)
	if res != FwdConflict {
		t.Fatalf("res = %v; unknown older store address must block", res)
	}
}

func TestSBMinUnexecTracking(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	a := sb.Push(1, 0x100, 8)
	b := sb.Push(2, 0x200, 8)
	c := sb.Push(3, 0x300, 8)
	sb.MarkExecuted(b) // out of order
	if res, _ := sb.Search(9, 0x400, 8); res != FwdConflict {
		t.Fatal("oldest store still unexecuted")
	}
	sb.MarkExecuted(a)
	if res, _ := sb.Search(9, 0x400, 8); res != FwdConflict {
		t.Fatal("store 3 still unexecuted")
	}
	sb.MarkExecuted(c)
	if res, _ := sb.Search(9, 0x400, 8); res != FwdMiss {
		t.Fatal("all executed; disjoint load must miss")
	}
}

// rotate pushes and pops n stores so the ring's head sits n slots in
// (the tests below then wrap, and reuse slots earlier stores linked to).
func rotate(sb *StoreBuffer, n int) {
	for i := 0; i < n; i++ {
		execStore(sb, 0, 0x1000+uint64(i%3)*64, 8, [8]byte{}).Committed = true
		sb.Pop()
	}
}

func TestSBLookaheadLines(t *testing.T) {
	sb := NewStoreBuffer(8, false)
	mk := func(seq, addr uint64, committed bool) {
		e := execStore(sb, seq, addr, 8, [8]byte{})
		e.Committed = committed
	}
	mk(1, 0x100, true)
	mk(2, 0x108, true) // same line
	mk(3, 0x200, true)
	mk(4, 0x300, false) // uncommitted ends the scan
	mk(5, 0x400, true)
	var lines []uint64
	sb.LookaheadLines(8, true, func(l uint64) { lines = append(lines, l) })
	if len(lines) != 2 || lines[0] != 0x100 || lines[1] != 0x200 {
		t.Fatalf("lookahead lines = %#v", lines)
	}
	lines = nil
	sb.LookaheadLines(1, true, func(l uint64) { lines = append(lines, l) })
	if len(lines) != 1 {
		t.Fatalf("k bound ignored: %v", lines)
	}
}

// TestSBLookaheadMark: a walk visits only the runs whose youngest store
// is at or past the watermark, still counts the older runs toward k,
// resumes at the last walk's last run (after pops too), and moves the
// watermark past the last run it visited; all visits every run again.
func TestSBLookaheadMark(t *testing.T) {
	sb := NewStoreBuffer(16, false)
	commit := func(seq, addr uint64) { execStore(sb, seq, addr, 8, [8]byte{}).Committed = true }
	walk := func(all bool, want string, wantMark uint64) {
		t.Helper()
		var lines []uint64
		sb.LookaheadLines(3, all, func(l uint64) { lines = append(lines, l) })
		if got := fmt.Sprintf("%#x", lines); got != want || sb.mark != wantMark {
			t.Fatalf("visited %s, mark %d; want %s, mark %d", got, sb.mark, want, wantMark)
		}
	}
	commit(1, 0x100)
	commit(2, 0x108)
	commit(3, 0x200)
	walk(false, "[0x100 0x200]", 4)
	commit(4, 0x208) // lengthens the youngest run, which is asked again
	commit(5, 0x300)
	commit(6, 0x400) // the fourth line: past k
	walk(false, "[0x200 0x300]", 6)
	sb.Pop()
	sb.Pop() // the 0x100 run leaves and the window reaches 0x400
	walk(false, "[0x400]", 7)
	walk(false, "[]", 7)
	for sb.Len() > 0 {
		sb.Pop() // Pop reaches the last walk's last run
	}
	commit(7, 0x500)
	commit(8, 0x600)
	walk(false, "[0x500 0x600]", 9)
	walk(true, "[0x500 0x600]", 9)
}

// TestSBLookaheadLinesAtCapacity fills a wrapped ring of every size with
// runs of one to three stores per line, the oldest two thirds committed,
// and checks each depth against the list the pattern implies.
func TestSBLookaheadLinesAtCapacity(t *testing.T) {
	for _, capacity := range ringCaps {
		sb := NewStoreBuffer(capacity, false)
		rotate(sb, capacity*3/2+1)
		committed := capacity - capacity/3
		var want []uint64
		line := uint64(0x8000)
		for i, left := 0, 0; i < capacity; i, left = i+1, left-1 {
			if left == 0 {
				line += 64
				left = 1 + int(line>>6)%3
				if i < committed {
					want = append(want, line)
				}
			}
			execStore(sb, uint64(i+1), line+uint64(left)*8, 8, [8]byte{}).Committed = i < committed
		}
		for _, k := range []int{1, 2, 16, 64, capacity} {
			var got []uint64
			sb.LookaheadLines(k, true, func(l uint64) { got = append(got, l) })
			exp := want
			if len(exp) > k {
				exp = exp[:k]
			}
			if len(got) != len(exp) {
				t.Fatalf("capacity %d, k %d: %d lines %#x, want %d", capacity, k, len(got), got, len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("capacity %d, k %d: line %d = %#x, want %#x", capacity, k, i, got[i], exp[i])
				}
			}
		}
	}
}

// Property: Search never returns FwdHit with data differing from the
// youngest covering executed store, at every ring size, with the ring
// wrapped and the stores spread over a few lines of one bucket or not.
func TestSBSearchProperty(t *testing.T) {
	for _, capacity := range ringCaps {
		capacity := capacity
		f := func(offsets []uint8, loadOff uint8) bool {
			sb := NewStoreBuffer(capacity, false)
			rotate(sb, capacity*3/2+1)
			type st struct {
				addr uint64
				data byte
			}
			addrOf := func(o uint8) uint64 { return 0x1000 + uint64(o>>6)*64 + uint64(o%56) }
			var stores []st
			for i, o := range offsets {
				if i >= capacity {
					break
				}
				v := byte(i + 1)
				execStore(sb, uint64(i+1), addrOf(o), 8, [8]byte{v, v, v, v, v, v, v, v})
				stores = append(stores, st{addrOf(o), v})
			}
			la := addrOf(loadOff)
			res, data := sb.Search(uint64(len(offsets))+100, la, 1)
			// Find the youngest store covering the byte.
			for i := len(stores) - 1; i >= 0; i-- {
				if la >= stores[i].addr && la < stores[i].addr+8 {
					return res == FwdHit && data[0] == stores[i].data
				}
			}
			return res == FwdMiss
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
}
