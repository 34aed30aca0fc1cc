package cpu

import (
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
	sb := NewStoreBuffer(3)
	if !sb.Empty() || sb.Full() || sb.Cap() != 3 {
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

func TestSBOverflowCounted(t *testing.T) {
	sb := NewStoreBuffer(1)
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
	sb := NewStoreBuffer(8)
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
	sb := NewStoreBuffer(8)
	execStore(sb, 1, 0x100, 8, [8]byte{1, 1, 1, 1, 1, 1, 1, 1})
	execStore(sb, 2, 0x100, 8, [8]byte{2, 2, 2, 2, 2, 2, 2, 2})
	res, data := sb.Search(9, 0x100, 8)
	if res != FwdHit || data[0] != 2 {
		t.Fatalf("res=%v data=%v; youngest store must forward", res, data)
	}
}

func TestSBForwardOnlyOlderStores(t *testing.T) {
	sb := NewStoreBuffer(8)
	execStore(sb, 10, 0x100, 8, [8]byte{9})
	res, _ := sb.Search(5, 0x100, 8)
	if res != FwdMiss {
		t.Fatalf("res = %v; a load must not see younger stores", res)
	}
}

func TestSBPartialOverlapConflicts(t *testing.T) {
	sb := NewStoreBuffer(8)
	execStore(sb, 1, 0x100, 4, [8]byte{1, 2, 3, 4})
	res, _ := sb.Search(5, 0x102, 4) // bytes 2-5; store covers 0-3
	if res != FwdConflict {
		t.Fatalf("res = %v, want conflict on partial overlap", res)
	}
}

func TestSBUnexecutedStoreBlocks(t *testing.T) {
	sb := NewStoreBuffer(8)
	sb.Push(1, 0x900, 8) // address "unknown"
	res, _ := sb.Search(5, 0x100, 8)
	if res != FwdConflict {
		t.Fatalf("res = %v; unknown older store address must block", res)
	}
}

func TestSBMinUnexecTracking(t *testing.T) {
	sb := NewStoreBuffer(8)
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

func TestSBLookaheadLines(t *testing.T) {
	sb := NewStoreBuffer(8)
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
	sb.LookaheadLines(8, func(l uint64) { lines = append(lines, l) })
	if len(lines) != 2 || lines[0] != 0x100 || lines[1] != 0x200 {
		t.Fatalf("lookahead lines = %#v", lines)
	}
	lines = nil
	sb.LookaheadLines(1, func(l uint64) { lines = append(lines, l) })
	if len(lines) != 1 {
		t.Fatalf("k bound ignored: %v", lines)
	}
}

// Property: Search never returns FwdHit with data differing from the
// youngest covering executed store.
func TestSBSearchProperty(t *testing.T) {
	f := func(offsets []uint8, loadOff uint8) bool {
		sb := NewStoreBuffer(16)
		type st struct {
			addr uint64
			data byte
		}
		var stores []st
		for i, o := range offsets {
			if i >= 14 {
				break
			}
			addr := uint64(0x1000) + uint64(o%56)
			v := byte(i + 1)
			execStore(sb, uint64(i+1), addr, 8, [8]byte{v, v, v, v, v, v, v, v})
			stores = append(stores, st{addr, v})
		}
		res, data := sb.Search(100, 0x1000+uint64(loadOff%56), 1)
		if res != FwdHit {
			return true // miss/conflict: nothing to verify
		}
		// Find the youngest store covering the byte.
		la := uint64(0x1000) + uint64(loadOff%56)
		for i := len(stores) - 1; i >= 0; i-- {
			if la >= stores[i].addr && la < stores[i].addr+8 {
				return data[0] == stores[i].data
			}
		}
		return false // hit without a covering store
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
