package cpu

import (
	"fmt"
	"testing"
	"unsafe"
)

// ringCaps are the sizes the rings run at: the degenerate ones, the two
// SB sizes of the figures (114 is not a power of two: 128 slots), and
// SSB's TSOB.
var ringCaps = []int{1, 3, 32, 114, 1024}

// TestSBEntrySize pins the no-growth promise: the index fields live in
// the entry's padding, so a ring costs what it cost before it was
// indexed.
func TestSBEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(SBEntry{}); n != 40 {
		t.Fatalf("unsafe.Sizeof(SBEntry{}) = %d, want 40", n)
	}
}

// ringLines is the line pool of the differential driver: six
// consecutive lines, then two more that share the first line's bucket.
var ringLines = func() [8]uint64 {
	var p [8]uint64
	for i := 0; i < 6; i++ {
		p[i] = 0x10000 + uint64(i)*64
	}
	n := 6
	for l := uint64(0x40000); n < len(p); l += 64 {
		if sbBucket(l) == sbBucket(p[0]) {
			p[n] = l
			n++
		}
	}
	return p
}()

// ringPair drives an indexed ring and its reference twin with the same
// operations and demands equal answers after every one.
type ringPair struct {
	t        testing.TB
	fast     *StoreBuffer
	ref      *StoreBuffer
	seq      uint64
	searches int
	// pending holds the seqs of the stores not yet executed (an entry
	// pointer would not survive the ring growing).
	pending []uint64
}

func newRingPair(t testing.TB, capacity int) *ringPair {
	return &ringPair{t: t, fast: NewStoreBuffer(capacity, false), ref: NewStoreBuffer(capacity, true), seq: 1}
}

// ringArg decodes an operand byte into a store or load shape: a pool
// line, an 8-byte-aligned slot in it, and a size of 8, 4, 2 or 1.
func ringArg(arg byte) (addr uint64, size uint8) {
	return ringLines[arg&7] + uint64(arg>>3&7)*8, 8 >> (arg >> 6)
}

func ringData(seq uint64) [8]byte {
	var d [8]byte
	for i := range d {
		d[i] = byte(seq*8 + uint64(i))
	}
	return d
}

// uncommitted returns the position of the oldest uncommitted entry
// (Len when every entry is committed).
func (p *ringPair) uncommitted() int {
	for i := 0; i < p.ref.count; i++ {
		if !p.ref.at(i).Committed {
			return i
		}
	}
	return p.ref.count
}

// push appends one store to both rings. With copyIn it arrives executed
// and committed through PushCopy, which needs every older store to be
// committed already (stores commit in order); otherwise it is a
// dispatch-time Push that executes and commits later.
func (p *ringPair) push(addr uint64, size uint8, copyIn bool) {
	seq := p.seq
	p.seq++
	if copyIn && p.uncommitted() == p.ref.count {
		src := SBEntry{Seq: seq, Addr: addr, Size: size, Data: ringData(seq), Executed: true, Committed: true, CommitCycle: seq}
		if a, b := p.fast.PushCopy(&src), p.ref.PushCopy(&src); a != b {
			p.t.Fatalf("PushCopy(seq %d): indexed %v, reference %v", seq, a, b)
		}
		return
	}
	a, b := p.fast.Push(seq, addr, size), p.ref.Push(seq, addr, size)
	if (a == nil) != (b == nil) {
		p.t.Fatalf("Push(seq %d): indexed %v, reference %v", seq, a, b)
	}
	if a != nil {
		a.Data, b.Data = ringData(seq), ringData(seq)
		p.pending = append(p.pending, seq)
	}
}

// bySeq returns sb's entry for seq.
func bySeq(sb *StoreBuffer, seq uint64) *SBEntry {
	for i := 0; i < sb.count; i++ {
		if e := sb.at(i); e.Seq == seq {
			return e
		}
	}
	panic(fmt.Sprintf("no store %d in the ring", seq))
}

// execute marks the n-th pending store executed (out of order).
func (p *ringPair) execute(n int) {
	if len(p.pending) == 0 {
		return
	}
	n %= len(p.pending)
	seq := p.pending[n]
	p.pending = append(p.pending[:n], p.pending[n+1:]...)
	p.fast.MarkExecuted(bySeq(p.fast, seq))
	p.ref.MarkExecuted(bySeq(p.ref, seq))
}

// commit retires up to n of the oldest uncommitted stores, stopping at
// one that has not executed.
func (p *ringPair) commit(n int) {
	for i := p.uncommitted(); n > 0 && i < p.ref.count && p.ref.at(i).Executed; i, n = i+1, n-1 {
		p.fast.at(i).Committed, p.ref.at(i).Committed = true, true
	}
}

// pop drains up to n committed heads.
func (p *ringPair) pop(n int) {
	for ; n > 0 && !p.ref.Empty() && p.ref.Head().Committed; n-- {
		p.fast.Pop()
		p.ref.Pop()
	}
}

func (p *ringPair) search(loadSeq, addr uint64, size uint8) {
	p.searches++
	ra, da := p.fast.Search(loadSeq, addr, size)
	rb, db := p.ref.Search(loadSeq, addr, size)
	if ra != rb || da != db {
		p.t.Fatalf("Search(loadSeq %d, %#x, %d) with %d entries: indexed (%v, %v), reference (%v, %v)",
			loadSeq, addr, size, p.ref.Len(), ra, da, rb, db)
	}
}

func (p *ringPair) lookahead(k int) {
	var a, b []uint64
	p.fast.LookaheadLines(k, true, func(l uint64) { a = append(a, l) })
	p.ref.LookaheadLines(k, true, func(l uint64) { b = append(b, l) })
	if fmt.Sprint(a) != fmt.Sprint(b) {
		p.t.Fatalf("LookaheadLines(%d) with %d entries: indexed %#x, reference %#x", k, p.ref.Len(), a, b)
	}
}

// check compares everything observable: occupancy, the head, a load to
// every slot of the head's, the tail's and (while the ring is small
// enough for that to stay cheap) every pool line, as the youngest load
// and as one in the middle of the ring, and both lookahead depths.
func (p *ringPair) check() {
	f, r := p.fast, p.ref
	if f.Len() != r.Len() || f.Full() != r.Full() || f.Empty() != r.Empty() || f.Overflows != r.Overflows {
		p.t.Fatalf("occupancy: indexed %d/%v/%d, reference %d/%v/%d", f.Len(), f.Full(), f.Overflows, r.Len(), r.Full(), r.Overflows)
	}
	p.checkIndex()
	if r.Empty() {
		p.search(noUnexec, ringLines[0], 8)
		p.lookahead(ssbLookaheadDepth)
		return
	}
	if f.Head().Seq != r.Head().Seq {
		p.t.Fatalf("head: indexed seq %d, reference seq %d", f.Head().Seq, r.Head().Seq)
	}
	lines := []uint64{r.Head().Line(), r.at(r.count - 1).Line()}
	if r.Len() <= 128 {
		lines = append(lines, ringLines[:]...)
	}
	mid := r.at(r.count / 2).Seq
	for _, l := range lines {
		for slot := uint64(0); slot < 8; slot++ {
			p.search(noUnexec, l+slot*8, 8)
			p.search(mid, l+slot*8+4, 4)
		}
	}
	p.lookahead(1)
	p.lookahead(ssbLookaheadDepth)
}

// checkIndex holds the indexed ring to the two invariants its doc
// comment states: a bucket names its youngest live entry or nothing, and
// the first entry of every maximal same-line run carries the run's
// length.
func (p *ringPair) checkIndex() {
	f := p.fast
	var youngest [sbBuckets]uint16
	for i := 0; i < f.count; {
		e := f.at(i)
		n := 1
		for i+n < f.count && f.at(i+n).Line() == e.Line() {
			n++
		}
		if int(e.run) != n {
			p.t.Fatalf("run of %d at position %d (line %#x) carries length %d", n, i, e.Line(), e.run)
		}
		i += n
		youngest[sbBucket(e.Line())] = uint16((f.head+i-1)&f.mask) + 1
	}
	if youngest != f.bucket {
		p.t.Fatalf("bucket table %v, want the youngest live slot of each bucket %v", f.bucket, youngest)
	}
}

// ssbLookaheadDepth is the deepest lookahead a mechanism asks for
// (mech.ssbLookahead).
const ssbLookaheadDepth = 64

// Ring driver operations: one opcode byte and one operand byte each.
const (
	opPush      = iota // dispatch one store
	opPushCopy         // copy one executed, committed store in
	opExecute          // execute the operand-th pending store
	opCommit           // commit up to operand%64+1 stores
	opPop              // pop up to operand%64+1 committed heads
	opSearch           // one load: operand shape, as a load in the middle of the ring
	opLookahead        // lookahead at depth 1, 2, 16 or 64
	opStream           // copy in (operand%16+1)*4 stores, 8 to a line, over consecutive lines
	ringOps
)

// drive runs a script: byte 0 picks the capacity, then (opcode, operand)
// pairs.
func driveRings(t testing.TB, script []byte) *ringPair {
	if len(script) == 0 {
		return nil
	}
	p := newRingPair(t, ringCaps[int(script[0])%len(ringCaps)])
	for i := 1; i+1 < len(script); i += 2 {
		op, arg := script[i]%ringOps, script[i+1]
		switch op {
		case opPush, opPushCopy:
			addr, size := ringArg(arg)
			p.push(addr, size, op == opPushCopy)
		case opExecute:
			p.execute(int(arg))
		case opCommit:
			p.commit(int(arg)%64 + 1)
		case opPop:
			p.pop(int(arg)%64 + 1)
		case opSearch:
			addr, size := ringArg(arg)
			loadSeq := uint64(noUnexec)
			if !p.ref.Empty() {
				loadSeq = p.ref.Head().Seq + uint64(arg)%(p.seq-p.ref.Head().Seq+1)
			}
			p.search(loadSeq, addr, size)
		case opLookahead:
			p.lookahead([]int{1, 2, 16, 64}[arg%4])
		case opStream:
			base := ringLines[arg&7]
			for j := 0; j < (int(arg)%16+1)*4; j++ {
				p.push(base+uint64(j)*8, 8, true)
			}
		}
		p.check()
	}
	return p
}

// ringScripts are the situations the index has to survive, as driver
// scripts: the seed corpus of FuzzStoreRing (committed under
// testdata/fuzz as well, so they replay in every `go test`).
var ringScripts = map[string][]byte{
	// Capacity 3: nine stores through three slots.
	"wrap": {1,
		opPushCopy, 0, opPushCopy, 1, opPushCopy, 2, opPop, 0, opPushCopy, 3, opPop, 1, opPushCopy, 4, opPushCopy, 5,
		opPop, 2, opPushCopy, 0, opPushCopy, 8, opPushCopy, 0, opPop, 0},
	// A four-store run loses its head store by store and grows at the
	// tail in between; then the same with another line's store splitting
	// it in two.
	"run-split": {2,
		opPushCopy, 0, opPushCopy, 8, opPushCopy, 16, opPushCopy, 24, opPop, 0, opPushCopy, 32, opPop, 0, opPop, 0,
		opPushCopy, 40, opPushCopy, 1, opPushCopy, 0, opPop, 0, opPop, 0, opLookahead, 3, opPop, 0, opPop, 0, opPop, 0},
	// Capacity 3, four slots. Line 0's store Z outlives the older line-0
	// store it links to; that slot is then taken by V, a younger line-0
	// store, so Z's stale link names a store younger than Z (following it
	// would walk V -> W -> Z -> V forever).
	"slot-reuse": {1,
		opPushCopy, 0, opPushCopy, 8, opPop, 0, opPushCopy, 1, opPushCopy, 16, opPop, 0, opPushCopy, 24, opPop, 0,
		opPushCopy, 32, opPop, 0, opPushCopy, 1},
	// Pool lines 0, 6 and 7 share a bucket; interleave them and drain.
	"collide": {2,
		opPushCopy, 0, opPushCopy, 6, opPushCopy, 7, opPushCopy, 8, opPushCopy, 14, opSearch, 6, opSearch, 7, opPop, 1,
		opSearch, 0, opPushCopy, 6, opPop, 2, opSearch, 14},
	// An 8-byte store, then a 4-byte store over its low half, then a
	// 2-byte one: loads of each width see hit, conflict or the older
	// store behind the younger ones.
	"partial": {2,
		opPushCopy, 0, opPushCopy, 0x40, opPushCopy, 0x80, opSearch, 0, opSearch, 0x40, opSearch, 0x80, opSearch, 0xc0,
		opPop, 0, opSearch, 0},
	// SB traffic: dispatch, execute out of order, commit in order, drain,
	// with loads between the stores.
	"sb": {3,
		opPush, 0, opPush, 9, opPush, 0, opPush, 18, opExecute, 2, opSearch, 0, opExecute, 0, opExecute, 0, opCommit, 1,
		opExecute, 0, opSearch, 9, opCommit, 7, opLookahead, 2, opPop, 1, opPush, 0, opSearch, 3, opPop, 7},
	// The TSOB at depth: three rounds of streaming 1,088 stores at its
	// 1,024 slots (the last stream of a round finds it full) and draining
	// three quarters of them.
	"tsob-deep": append([]byte{4}, func() []byte {
		var s []byte
		for round := 0; round < 3; round++ {
			for i := 0; i < 17; i++ {
				s = append(s, opStream, byte(0x0f+round<<4))
			}
			for i := 0; i < 12; i++ {
				s = append(s, opSearch, byte(i*21), opPop, 63)
			}
		}
		return s
	}()...),
	// Capacity 114 in 128 slots: streams and single stores to the pool.
	"sb114": append([]byte{3}, func() []byte {
		var s []byte
		for i := 0; i < 40; i++ {
			s = append(s, opStream, byte(i%8), opPushCopy, byte(i*37), opPop, byte(i%13))
		}
		return s
	}()...),
	// Capacity 32, first ring 8: Z (line 0) links to Y, Y pops and its
	// slot wraps to V (line 0 again), so V -> Z -> V is a stale cycle in a
	// full ring whose head is slot 1. W (line 0, dispatched, not yet
	// executed) grows the ring, joins V's run and executes, commits and
	// drains after the move; a second fill grows the ring again.
	"grow": append([]byte{2,
		opPushCopy, 0, opPushCopy, 1, opPushCopy, 8, opPop, 0,
		opPushCopy, 2, opPushCopy, 3, opPushCopy, 4, opPushCopy, 5, opPushCopy, 13, opPushCopy, 16,
		opSearch, 8, opPush, 0, opSearch, 8, opSearch, 16, opLookahead, 3, opExecute, 0, opSearch, 0x48,
		opCommit, 63, opLookahead, 3},
		func() []byte {
			var s []byte
			for i := 0; i < 12; i++ {
				s = append(s, opPushCopy, byte(i*9), opSearch, byte(i*8+8))
			}
			return append(s, opPush, 6, opPush, 8, opExecute, 1, opSearch, 8, opExecute, 0, opCommit, 63, opPop, 63)
		}()...),
	// Capacity 1.
	"one": {0, opPushCopy, 0, opSearch, 0, opPop, 0, opPush, 6, opSearch, 6, opExecute, 0, opCommit, 0, opPop, 0, opPushCopy, 7},
}

// TestStoreRingScripts replays the named situations against the
// reference twin.
func TestStoreRingScripts(t *testing.T) {
	for name, script := range ringScripts {
		name, script := name, script
		t.Run(name, func(t *testing.T) {
			if p := driveRings(t, script); p.searches == 0 {
				t.Fatal("script compared nothing")
			}
		})
	}
}

// FuzzStoreRing drives the indexed ring and the reference ring with one
// random operation stream and demands equal results at every step.
func FuzzStoreRing(f *testing.F) {
	for _, script := range ringScripts {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip()
		}
		driveRings(t, script)
	})
}

// TestStoreRingZeroAlloc: the ring's four hot operations allocate
// nothing, at the SB's size and at the TSOB's.
func TestStoreRingZeroAlloc(t *testing.T) {
	for _, capacity := range []int{114, 1024} {
		sb := NewStoreBuffer(capacity, false)
		seq := uint64(1)
		push := func() {
			src := SBEntry{Seq: seq, Addr: 0x1000 + seq*8, Size: 8, Executed: true, Committed: true}
			sb.PushCopy(&src)
			seq++
		}
		for i := 0; i < capacity-1; i++ {
			push()
		}
		var lines int
		visit := func(uint64) { lines++ }
		step := func() {
			e := sb.Push(seq, 0x1000+seq*8, 8)
			sb.MarkExecuted(e)
			e.Committed = true
			seq++
			sb.Search(seq, 0x1000+seq*8-64, 8)
			sb.LookaheadLines(64, true, visit)
			sb.Pop()
		}
		step()
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Fatalf("capacity %d: ring step allocates %.1f times, want 0", capacity, n)
		}
		if lines == 0 {
			t.Fatal("lookahead visited nothing")
		}
	}
}
