// Package tso provides an online checker for the consistency
// properties TUS must preserve (Sec. III-D). It observes the
// architectural event stream of a simulation and verifies:
//
//   - Store->Store order: the stores a core makes visible in one cycle
//     (an atomic group publication) always form a *prefix* of that
//     core's committed pending-store queue — no store becomes visible
//     while an older store of the same core stays pending outside the
//     same atomic publication.
//   - Coalescing value correctness: the bytes published for a line
//     equal the program-order application of exactly the popped stores.
//   - Load value legality: every bound load value matches, byte for
//     byte, either the globally visible memory (within a small recent
//     window, since loads sample the memory system a few cycles before
//     their value binds) or a pending same-core store older than the
//     load (store-to-load forwarding).
//   - End-of-run completeness: no store remains pending forever.
//
// The checker is deliberately implementation-agnostic: it sees only
// commits, visibility events, and load values, never mechanism state.
package tso

import (
	"fmt"

	"tusim/internal/memsys"
)

// pendingStore is a committed store not yet globally visible.
type pendingStore struct {
	seq   uint64
	addr  uint64
	size  uint8
	value [8]byte
}

func (p *pendingStore) mask() memsys.Mask { return memsys.MaskFor(p.addr, p.size) }
func (p *pendingStore) line() uint64      { return p.addr &^ 63 }

// history keeps recent visible values of one byte so that loads whose
// value was sampled a few cycles before binding still verify.
type history struct {
	vals   [4]byte
	cycles [4]uint64
	n      int
}

func (h *history) push(v byte, cycle uint64) {
	if h.n < len(h.vals) {
		h.vals[h.n], h.cycles[h.n] = v, cycle
		h.n++
		return
	}
	copy(h.vals[:], h.vals[1:])
	copy(h.cycles[:], h.cycles[1:])
	h.vals[h.n-1], h.cycles[h.n-1] = v, cycle
}

// legal reports whether v was the visible value at some point within
// [cycle-window, cycle].
func (h *history) legal(v byte, cycle, window uint64) bool {
	if h.n == 0 {
		return v == 0 // unwritten memory reads zero
	}
	for i := h.n - 1; i >= 0; i-- {
		if h.vals[i] == v {
			if i == h.n-1 {
				return true // still current
			}
			// Overwritten at cycles[i+1]; legal if current within window.
			return h.cycles[i+1]+window >= cycle
		}
	}
	// v predates recorded history; legal only if even the oldest
	// recorded write is inside the window and v is the zero default.
	return h.cycles[0]+window >= cycle && v == 0
}

// loadWindow is the slack (cycles) between a load sampling memory and
// its value binding; covers the deepest miss path (L3 + DRAM + probes).
const loadWindow = 512

// Violation is one detected consistency violation.
type Violation struct {
	Kind string
	Msg  string
}

func (v Violation) String() string { return v.Kind + ": " + v.Msg }

// publication is one line's visibility event inside a same-cycle batch.
type publication struct {
	mask memsys.Mask
	data memsys.LineData
}

// seqVal records one store's write to one byte, for forwarding checks.
type seqVal struct {
	seq uint64
	val byte
}

// Checker implements system.Observer.
type Checker struct {
	pending [][]pendingStore // per core, program order (committed)
	// exec records, per core and byte address, every executed store's
	// value — loads may forward from executed-but-uncommitted stores.
	exec    []map[uint64][]seqVal
	golden  map[uint64]*history
	current map[uint64]byte
	violas  []Violation
	maxKeep int

	batchCycle []uint64
	batch      []map[uint64]*publication
	scratch    map[uint64]byte // flush's, cleared on entry

	// Published counts visibility events; LoadsSeen counts checked loads.
	Published uint64
	LoadsSeen uint64
}

// NewChecker builds a checker for the given core count.
func NewChecker(cores int) *Checker {
	c := &Checker{
		pending:    make([][]pendingStore, cores),
		exec:       make([]map[uint64][]seqVal, cores),
		golden:     make(map[uint64]*history),
		current:    make(map[uint64]byte),
		maxKeep:    64,
		batchCycle: make([]uint64, cores),
		batch:      make([]map[uint64]*publication, cores),
		scratch:    make(map[uint64]byte),
	}
	for i := range c.exec {
		c.exec[i] = make(map[uint64][]seqVal)
	}
	return c
}

// StoreExecuted implements system.Observer.
func (c *Checker) StoreExecuted(core int, seq, addr uint64, size uint8, value [8]byte) {
	for i := 0; i < int(size); i++ {
		a := addr + uint64(i)
		c.exec[core][a] = append(c.exec[core][a], seqVal{seq: seq, val: value[i]})
	}
}

func (c *Checker) violate(kind, format string, args ...any) {
	if len(c.violas) < c.maxKeep {
		c.violas = append(c.violas, Violation{Kind: kind, Msg: fmt.Sprintf(format, args...)})
	}
}

// Violations returns everything detected so far.
func (c *Checker) Violations() []Violation { return c.violas }

// Err returns a summarizing error, or nil if the run was clean.
func (c *Checker) Err() error {
	if len(c.violas) == 0 {
		return nil
	}
	return fmt.Errorf("tso: %d violations; first: %s", len(c.violas), c.violas[0])
}

// StoreCommitted implements system.Observer.
func (c *Checker) StoreCommitted(core int, seq, addr uint64, size uint8, value [8]byte) {
	c.pending[core] = append(c.pending[core], pendingStore{seq: seq, addr: addr, size: size, value: value})
}

// StoreVisible implements system.Observer. Same-cycle events from one
// core form one atomic publication (atomic groups publish all their
// lines in a single cycle); the batch is checked when the core's next
// publication cycle differs or at Finish.
func (c *Checker) StoreVisible(core int, cycle uint64, line uint64, mask memsys.Mask, data *memsys.LineData) {
	c.Published++
	c.flushOlder(cycle)
	if c.batch[core] == nil {
		c.batch[core] = make(map[uint64]*publication, 4)
		c.batchCycle[core] = cycle
	}
	p := c.batch[core][line]
	if p == nil {
		p = &publication{}
		c.batch[core][line] = p
	}
	p.mask |= mask
	p.data = *data
}

// flushOlder closes every batch opened at a cycle before the given one
// (events arrive in non-decreasing cycle order, so those publications
// are complete and other cores' loads may legally observe them).
func (c *Checker) flushOlder(cycle uint64) {
	for core := range c.batch {
		if c.batch[core] != nil && c.batchCycle[core] < cycle {
			c.flush(core)
		}
	}
}

// flush applies and checks one core's atomic publication batch.
func (c *Checker) flush(core int) {
	batch := c.batch[core]
	cycle := c.batchCycle[core]
	c.batch[core] = nil
	if len(batch) == 0 {
		return
	}

	// Pop the longest *value-consistent* covered prefix of the pending
	// queue. Coverage alone is ambiguous: a non-coalescing mechanism
	// publishing store k may cover a later pending store to the same
	// bytes that it did NOT make visible; value consistency (the
	// program-order application of the popped stores must equal the
	// published bytes everywhere they touch) disambiguates.
	q := c.pending[core]
	scratch := c.scratch
	clear(scratch)
	consistent := func() bool {
		for a, v := range scratch {
			pub := batch[a&^63]
			if pub == nil {
				return false
			}
			if pub.data[a&63] != v {
				return false
			}
		}
		return true
	}
	covered := 0
	bestPop := 0
	for _, p := range q {
		pub := batch[p.line()]
		if pub == nil || !pub.mask.Covers(p.mask()) {
			break
		}
		for i := 0; i < int(p.size); i++ {
			scratch[p.addr+uint64(i)] = p.value[i]
		}
		covered++
		if consistent() {
			bestPop = covered
		}
	}
	if bestPop == 0 {
		// Benign republication of already-visible data is allowed
		// (e.g., two identical-value stores drained separately).
		benign := true
		for line, pub := range batch {
			for i := 0; i < 64; i++ {
				if pub.mask&(1<<uint(i)) != 0 && c.current[line+uint64(i)] != pub.data[i] {
					benign = false
				}
			}
		}
		if !benign {
			if covered > 0 {
				c.violate("store-value",
					"core %d publication at cycle %d covers %d pending stores but no prefix reproduces the published bytes",
					core, cycle, covered)
			} else {
				c.violate("store-order",
					"core %d published %d line(s) at cycle %d but its oldest pending store (%s) is not covered",
					core, len(batch), cycle, describeOldest(q))
			}
		}
	}
	c.pending[core] = q[bestPop:]

	// Update the golden memory for every published byte.
	for line, pub := range batch {
		for i := 0; i < 64; i++ {
			if pub.mask&(1<<uint(i)) == 0 {
				continue
			}
			a := line + uint64(i)
			h := c.golden[a]
			if h == nil {
				h = &history{}
				c.golden[a] = h
			}
			h.push(pub.data[i], cycle)
			c.current[a] = pub.data[i]
		}
	}
}

func describeOldest(q []pendingStore) string {
	if len(q) == 0 {
		return "<none>"
	}
	p := q[0]
	return fmt.Sprintf("seq=%d addr=%#x size=%d", p.seq, p.addr, p.size)
}

// LoadBound implements system.Observer.
func (c *Checker) LoadBound(core int, cycle uint64, seq, addr uint64, size uint8, value [8]byte) {
	// Publications from earlier cycles are complete; make them visible.
	c.flushOlder(cycle)
	c.LoadsSeen++
	for i := 0; i < int(size); i++ {
		a := addr + uint64(i)
		v := value[i]
		if c.legalByte(core, seq, a, v, cycle) {
			continue
		}
		c.violate("load-value",
			"core %d load seq=%d addr=%#x byte %d read %#x; visible=%#x and no matching pending local store",
			core, seq, addr, i, v, c.current[a])
		return
	}
}

func (c *Checker) legalByte(core int, loadSeq, a uint64, v byte, cycle uint64) bool {
	// Forwarding from the youngest older local store that executed
	// (its data is forwardable from the SB/WCB/TSOB even before it
	// commits). If such a store exists and matches, the load is legal;
	// if it exists and mismatches, the load may still legally have
	// read visible memory (the store may already be visible and
	// overwritten remotely), so fall through to the golden check.
	if hist := c.exec[core][a]; len(hist) > 0 {
		var youngest *seqVal
		for i := range hist {
			sv := &hist[i]
			if sv.seq < loadSeq && (youngest == nil || sv.seq > youngest.seq) {
				youngest = sv
			}
		}
		if youngest != nil && youngest.val == v {
			return true
		}
	}
	// A publication still sitting in an open same-cycle batch (any
	// core's): events within a cycle are ordered, so a publication the
	// checker has already recorded this cycle happened before this bind
	// and is legally observable.
	for _, b := range c.batch {
		if b == nil {
			continue
		}
		if pub := b[a&^63]; pub != nil && pub.mask&(1<<uint(a&63)) != 0 {
			if pub.data[a&63] == v {
				return true
			}
		}
	}
	// Globally visible memory (with the sampling window).
	if h := c.golden[a]; h != nil {
		return h.legal(v, cycle, loadWindow)
	}
	return v == 0
}

// Finish flushes open batches and performs end-of-run checks: every
// committed store must have become visible.
func (c *Checker) Finish() {
	for core := range c.batch {
		if c.batch[core] != nil {
			c.flush(core)
		}
	}
	for core, q := range c.pending {
		if len(q) > 0 {
			c.violate("liveness", "core %d finished with %d stores never made visible (oldest %s)",
				core, len(q), describeOldest(q))
		}
	}
}

// VisibleByte returns the checker's view of the coherent value of a
// byte (tests compare it against the machine's coherent view).
func (c *Checker) VisibleByte(a uint64) byte { return c.current[a] }
