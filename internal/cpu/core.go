package cpu

import (
	"encoding/binary"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/isa"
	"tusim/internal/memsys"
	"tusim/internal/stats"
	"tusim/internal/trace"
)

// DrainMechanism is the pluggable store-handling policy: it owns the
// path from the SB head into the memory system.
type DrainMechanism interface {
	// Name returns the paper name of the policy.
	Name() string
	// Tick runs once per cycle after commit; it may drain committed
	// stores from the SB (the core never pops the SB itself).
	Tick()
	// Forward searches mechanism-held store data (WCBs, TSOB, ...) for
	// a load that missed SB forwarding.
	Forward(addr uint64, size uint8) (ForwardResult, [8]byte)
	// Drained reports that no stores remain buffered in the mechanism.
	Drained() bool
	// FlushDone reports that every store the mechanism handled is
	// globally visible (fence/serializing semantics; for TUS this
	// additionally requires an empty WOQ).
	FlushDone() bool
	// Quiescent describes the next ticks, given that no event fires
	// before them; fence says the core asks FlushDone in each of them.
	Quiescent(fence bool) Idle
}

// Idle describes a drain mechanism's quiescent ticks: up to Ticks of
// them in a row (0: the next one may act; Forever: until an event)
// change nothing but bump Blocked and sample Occ at OccLen, each when
// set. The run loop skips them and accounts them in bulk.
type Idle struct {
	Ticks   uint64
	Blocked *stats.Counter
	Occ     *stats.Histogram
	OccLen  uint64
}

// Forever is Idle.Ticks when only an event can end the wait.
const Forever = ^uint64(0)

type robEntry struct {
	seq      uint64
	op       isa.MicroOp
	valid    bool
	issued   bool
	done     bool
	replay   bool // bound load snooped by an invalidation; re-bind at commit
	depCount int
	waiters  []uint64 // seqs of dependents
	sbEntry  *SBEntry // a store's; rebindSB moves it when the SB ring grows
}

// mobLoad is one memory-order-buffer record: a load that bound its
// value from the memory system (not store forwarding) and has not yet
// committed. Invalidation snoops check these to enforce TSO
// load->load ordering (see Core.snoopInvalidate).
type mobLoad struct {
	seq  uint64
	addr uint64
	size uint8
}

// LoadObserver receives every architecturally bound load value (the
// TSO checker subscribes).
type LoadObserver func(core int, seq, addr uint64, size uint8, value [8]byte)

// Core is one out-of-order hardware context.
type Core struct {
	ID   int
	cfg  *config.Config
	q    *event.Queue
	st   *stats.Set
	priv *memsys.Private
	mech DrainMechanism

	stream   isa.Stream
	nextOp   isa.MicroOp // lookahead slot, valid when haveNext
	haveNext bool
	seq      uint64 // next seq to dispatch
	eof      bool

	// rob is a power-of-two ring indexed by seq&robMask; robCap is the
	// architectural capacity (the ring may be larger so indexing is a
	// mask, not a division). The ring starts at robFirst entries and is
	// replaced by the full-size one the first time more ops are in
	// flight than it holds (growROB), so a litmus core never allocates,
	// clears or has the collector scan the 512 pointerful entries a
	// saturated core fills within its first few hundred cycles.
	rob      []robEntry
	robMask  uint64
	robCap   int
	robHead  uint64 // seq of oldest in-flight op
	robCount int

	SB      *StoreBuffer
	lqCount int

	// ready is a hand-rolled min-heap of issuable seqs (oldest first);
	// seqs are unique so the pop order is total.
	ready        []uint64
	blockedLoads []uint64 // loads waiting on conflicts/MSHRs/fences
	fences       []uint64 // seqs of in-flight fences
	mob          []mobLoad

	// execDoneFn/fwdDoneFn are the long-lived two-arg event callbacks
	// the issue path schedules through; binding them once keeps the
	// per-op execute/forward completions allocation-free.
	execDoneFn event.Func2
	fwdDoneFn  event.Func2

	// ReadVisible returns the current globally visible value of a byte
	// range (wired by system). It is consulted only to re-bind snooped
	// loads at commit, so it never affects timing.
	ReadVisible func(addr uint64, size uint8) [8]byte

	frontWidth int

	// OnStoreCommit observers (prefetch-at-commit, SPB).
	OnStoreCommit []func(addr uint64)
	// OnStoreData observes committed stores with their final data
	// (TSO checker).
	OnStoreData func(seq, addr uint64, size uint8, value [8]byte)
	// OnStoreExec observes stores at execute time, when their data
	// first becomes forwardable to loads (TSO checker).
	OnStoreExec func(seq, addr uint64, size uint8, value [8]byte)
	// OnLoadValue observes bound load values.
	OnLoadValue LoadObserver

	cCycles, cCommitted, cLoads, cStores     *stats.Counter
	cStallROB, cStallLQ, cStallSB, cSBSearch *stats.Counter
	cFwdHits, cFwdConflicts, cMechFwd        *stats.Counter
	cSBBlocked, cFenceStall, cSBOverflow     *stats.Counter

	hSBOcc, hDrainLat *stats.Histogram

	// idleStalls (fence, dispatch; nil when none) and idleMech are what
	// the last Quiescent found the skipped ticks would bump.
	idleStalls [2]*stats.Counter
	idleMech   Idle

	// tr is the lifecycle tracer; nil (the default) records nothing and
	// costs one branch per Emit.
	tr *trace.Tracer
}

// NewCore builds a core over a private cache hierarchy and a micro-op
// stream. The drain mechanism is attached separately (SetMechanism)
// because mechanisms need the core's SB at construction time.
func NewCore(id int, cfg *config.Config, q *event.Queue, priv *memsys.Private, stream isa.Stream, st *stats.Set) *Core {
	fw := cfg.FetchWidth
	for _, w := range []int{cfg.DecodeWidth, cfg.RenameWidth, cfg.DispatchWidth} {
		if w < fw {
			fw = w
		}
	}
	c := &Core{
		ID:         id,
		cfg:        cfg,
		q:          q,
		st:         st,
		priv:       priv,
		stream:     stream,
		rob:        make([]robEntry, robFirst),
		robMask:    robFirst - 1,
		robCap:     cfg.ROBEntries,
		SB:         NewStoreBuffer(cfg.SBEntries, cfg.Reference),
		frontWidth: fw,
	}
	c.execDoneFn = c.execDone
	c.fwdDoneFn = c.fwdDone
	c.cCycles = st.Counter("cycles")
	c.cCommitted = st.Counter("committed_ops")
	c.cLoads = st.Counter("loads")
	c.cStores = st.Counter("stores")
	c.cStallROB = st.Counter("stall_rob")
	c.cStallLQ = st.Counter("stall_lq")
	c.cStallSB = st.Counter("stall_sb")
	c.cSBSearch = st.Counter("sb_searches")
	c.cFwdHits = st.Counter("sb_forward_hits")
	c.cFwdConflicts = st.Counter("sb_forward_conflicts")
	c.cMechFwd = st.Counter("mech_forward_hits")
	c.cSBBlocked = st.Counter("sb_head_blocked_cycles")
	c.cFenceStall = st.Counter("fence_stall_cycles")
	c.cSBOverflow = st.Counter("sb_overflows")
	c.hSBOcc = st.Histogram("sb_occupancy")
	c.hDrainLat = st.Histogram("sb_drain_latency")
	c.SB.OnPop = func(e *SBEntry) {
		now := c.q.Now()
		var lat uint64
		if now >= e.CommitCycle {
			lat = now - e.CommitCycle
		}
		c.hDrainLat.Observe(lat)
		c.tr.Emit(trace.SBDrain, int32(c.ID), now, e.Addr, e.Seq, lat)
	}
	if cfg.PrefetchAtCommit {
		// The commit-time RFO is a 100%-accurate demand hint, naturally
		// rate-limited by commit width, so it rides the demand path.
		// Under TUS it is only an allocation warm-up (the WOQ issues
		// the authoritative, lex-governed permission requests), so it
		// stays in the prefetch class there and never fights the
		// authorization unit. NACKs drop the request either way; the
		// drain path issues any demand request still needed.
		prefetchClass := cfg.Mechanism == config.TUS
		c.OnStoreCommit = append(c.OnStoreCommit, func(addr uint64) {
			priv.RequestWritable(addr&^63, prefetchClass, false, nil)
		})
	}
	priv.OnLineLost = c.snoopInvalidate
	priv.LoadReply = c.loadReply
	return c
}

// SetMechanism attaches the store drain policy.
func (c *Core) SetMechanism(m DrainMechanism) { c.mech = m }

// SetTracer attaches (or detaches, with nil) the lifecycle tracer.
func (c *Core) SetTracer(t *trace.Tracer) { c.tr = t }

// Priv exposes the private hierarchy (mechanisms and tests).
func (c *Core) Priv() *memsys.Private { return c.priv }

// Now exposes the simulation clock (mechanisms without their own queue
// handle use it to timestamp trace events).
func (c *Core) Now() uint64 { return c.q.Now() }

// StoreValue derives the deterministic 8-byte value a store writes;
// workloads and the TSO checker agree on this function.
func StoreValue(core int, seq uint64) [8]byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], seq*0x9E3779B97F4A7C15+uint64(core)*0xBF58476D1CE4E5B9+1)
	return v
}

func (c *Core) entry(seq uint64) *robEntry { return &c.rob[seq&c.robMask] }

// robFirst is the ring's initial size (a power of two).
const robFirst = 16

// growROB replaces a full first ring by the power of two covering the
// architectural capacity. Every slot is live then, and a live entry's
// seq picks its slot in the new ring. Only dispatch calls it, where no
// *robEntry is held.
func (c *Core) growROB() {
	old := c.rob
	size := len(old)
	for size < c.robCap {
		size <<= 1
	}
	c.rob = make([]robEntry, size)
	c.robMask = uint64(size - 1)
	for i := range old {
		*c.entry(old[i].seq) = old[i]
	}
}

// rebindSB points the ROB's stores older than seq at their entries in
// the SB's new ring after Push grew it. A store leaves the ROB when it
// commits, so the uncommitted entries are exactly the ROB's stores.
func (c *Core) rebindSB(seq uint64) {
	for i := 0; i < c.SB.count; i++ {
		if e := c.SB.at(i); !e.Committed && e.Seq < seq {
			c.entry(e.Seq).sbEntry = e
		}
	}
}

// readyPush inserts seq into the ready min-heap.
func (c *Core) readyPush(seq uint64) {
	c.ready = append(c.ready, seq)
	i := len(c.ready) - 1
	for i > 0 {
		p := (i - 1) / 2
		if c.ready[p] <= c.ready[i] {
			break
		}
		c.ready[i], c.ready[p] = c.ready[p], c.ready[i]
		i = p
	}
}

// readyPop removes the minimum seq (callers peek c.ready[0] first).
func (c *Core) readyPop() {
	n := len(c.ready) - 1
	c.ready[0] = c.ready[n]
	c.ready = c.ready[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && c.ready[r] < c.ready[l] {
			m = r
		}
		if c.ready[i] <= c.ready[m] {
			break
		}
		c.ready[i], c.ready[m] = c.ready[m], c.ready[i]
		i = m
	}
}

// Committed is the core's committed micro-op count (the committed_ops
// counter, so it restarts at the warm-up reset).
func (c *Core) Committed() uint64 { return c.cCommitted.Value() }

// Done reports the core has fully retired its trace, drained its SB
// and mechanism, and has no in-flight memory operations.
func (c *Core) Done() bool {
	return c.eof && !c.haveNext && c.robCount == 0 && c.SB.Empty() &&
		(c.mech == nil || c.mech.Drained())
}

// Tick advances the core by one cycle: commit, issue, dispatch, drain.
func (c *Core) Tick() {
	c.cCycles.Inc()
	c.hSBOcc.Observe(uint64(c.SB.Len()))
	c.commit()
	c.issue()
	c.dispatch()
	if c.mech != nil {
		c.mech.Tick()
	}
}

// Quiescent reports how many ticks in a row, from the next one on,
// would change nothing but what Skip accounts, given that no event
// fires before them; 0 when the next tick may act. Such a tick issues
// nothing (a blocked load may only wait on a fence), commits nothing
// (the ROB head is unfinished, or a fence still waits), cannot dispatch
// the next op and finds the drain mechanism quiescent too.
func (c *Core) Quiescent() uint64 {
	if len(c.ready) > 0 || c.mech == nil {
		return 0
	}
	for _, seq := range c.blockedLoads {
		if !c.blockedByFence(seq) {
			return 0
		}
	}
	fence := false
	c.idleStalls = [2]*stats.Counter{}
	if c.robCount > 0 {
		if e := c.entry(c.robHead); e.op.Kind == isa.Fence {
			h := c.SB.Head()
			fence = h == nil || h.Seq > e.seq // commit will ask FlushDone
			c.idleStalls[0] = c.cFenceStall
		} else if e.done {
			return 0
		}
	}
	if c.haveNext {
		if c.idleStalls[1] = c.stallOf(&c.nextOp); c.idleStalls[1] == nil {
			return 0
		}
	} else if !c.eof {
		return 0
	}
	c.idleMech = c.mech.Quiescent(fence)
	return c.idleMech.Ticks
}

// Skip accounts n ticks that the last Quiescent allowed: the cycles,
// the occupancy samples and the stall counters they would bump.
func (c *Core) Skip(n uint64) {
	c.cCycles.Add(n)
	c.hSBOcc.ObserveN(uint64(c.SB.Len()), n)
	for _, ctr := range [...]*stats.Counter{c.idleStalls[0], c.idleStalls[1], c.idleMech.Blocked} {
		if ctr != nil {
			ctr.Add(n)
		}
	}
	if m := c.idleMech; m.Occ != nil {
		m.Occ.ObserveN(m.OccLen, n)
	}
}

// ---------- Commit ----------

func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		e := c.entry(c.robHead)
		if !e.valid {
			// Invariant: the ROB ring always holds a valid entry at its
			// head while robCount > 0 (dispatch/commit keep them in step).
			panic(faults.Violationf("cpu", c.ID, 0, "rob-head-valid",
				"ROB head seq=%d invalid with robCount=%d", c.robHead, c.robCount))
		}
		if e.op.Kind == isa.Fence {
			// Serializing: wait until every OLDER store has drained and
			// the mechanism has made it visible (Sec. III-A). Younger
			// stores may already sit in the SB behind the fence.
			if h := c.SB.Head(); h != nil && h.Seq < e.seq {
				c.cFenceStall.Inc()
				return
			}
			if c.mech != nil && !c.mech.FlushDone() {
				c.cFenceStall.Inc()
				return
			}
			e.done = true
		}
		if !e.done {
			return
		}
		switch e.op.Kind {
		case isa.Store:
			c.SB.Commit(e.sbEntry, c.q.Now())
			c.tr.Emit(trace.SBCommit, int32(c.ID), c.q.Now(), e.op.Addr, e.seq, 0)
			if c.OnStoreData != nil {
				c.OnStoreData(e.seq, e.op.Addr, e.op.Size, e.sbEntry.Data)
			}
			for _, f := range c.OnStoreCommit {
				f(e.op.Addr)
			}
		case isa.Load:
			c.lqCount--
			c.retireLoad(e)
		case isa.Fence:
			c.popFence(e.seq)
		}
		c.notifyWaiters(e) // in case anything waited on a fence
		e.valid = false
		c.robHead++
		c.robCount--
		c.cCommitted.Inc()
	}
}

func (c *Core) popFence(seq uint64) {
	for i, f := range c.fences {
		if f == seq {
			c.fences = append(c.fences[:i], c.fences[i+1:]...)
			return
		}
	}
}

// blockedByFence reports whether a memory op at seq must wait for an
// older in-flight fence.
func (c *Core) blockedByFence(seq uint64) bool {
	for _, f := range c.fences {
		if f < seq {
			return true
		}
	}
	return false
}

// ---------- Issue / execute ----------

func (c *Core) issue() {
	issued := 0
	simpleALU := c.cfg.SimpleALUs
	complexALU := c.cfg.ComplexALUs

	// Retry blocked loads first (oldest first), then fresh ready ops.
	if len(c.blockedLoads) > 0 {
		still := c.blockedLoads[:0]
		for _, seq := range c.blockedLoads {
			if issued >= c.cfg.IssueWidth {
				still = append(still, seq)
				continue
			}
			e := c.entry(seq)
			if !e.valid || e.seq != seq || e.done || !e.issued {
				continue
			}
			if c.tryLoad(e) {
				issued++
			} else {
				still = append(still, seq)
			}
		}
		c.blockedLoads = still
	}

	for issued < c.cfg.IssueWidth && len(c.ready) > 0 {
		seq := c.ready[0]
		e := c.entry(seq)
		if !e.valid || e.seq != seq || e.issued {
			c.readyPop()
			continue
		}
		k := e.op.Kind
		if k.IsALU() || k == isa.Nop || k == isa.Store {
			// Structural hazard check: stores use an AGU slot on any ALU.
			if k.Complex() {
				if complexALU == 0 {
					break
				}
			} else if simpleALU == 0 && complexALU == 0 {
				break
			}
			c.readyPop()
			if k.Complex() {
				complexALU--
			} else if simpleALU > 0 {
				simpleALU--
			} else {
				complexALU--
			}
			e.issued = true
			issued++
			c.execute(e)
			continue
		}
		if k == isa.Load {
			if c.blockedByFence(seq) {
				c.readyPop()
				e.issued = true
				c.blockedLoads = append(c.blockedLoads, seq)
				continue
			}
			c.readyPop()
			e.issued = true
			issued++
			if !c.tryLoad(e) {
				c.blockedLoads = append(c.blockedLoads, seq)
			}
			continue
		}
		// Fence: becomes "done" at commit time; nothing to issue.
		c.readyPop()
		e.issued = true
	}
}

func (c *Core) latencyOf(k isa.Kind) uint64 {
	switch k {
	case isa.IntAdd, isa.Nop:
		return c.cfg.IntAddLat
	case isa.IntMul:
		return c.cfg.IntMulLat
	case isa.IntDiv:
		return c.cfg.IntDivLat
	case isa.FPAdd:
		return c.cfg.FPAddLat
	case isa.FPMul:
		return c.cfg.FPMulLat
	case isa.FPDiv:
		return c.cfg.FPDivLat
	case isa.Store:
		return 1 // address generation
	}
	return 1
}

func (c *Core) execute(e *robEntry) {
	c.q.After2(c.latencyOf(e.op.Kind), c.execDoneFn, e.seq, 0)
}

// execDone is the functional-unit completion event (scheduled through
// the preallocated execDoneFn binding; the second argument is unused).
func (c *Core) execDone(seq, _ uint64) {
	e2 := c.entry(seq)
	if !e2.valid || e2.seq != seq {
		return
	}
	if e2.op.Kind == isa.Store {
		e2.sbEntry.Data = StoreValue(c.ID, seq)
		c.SB.MarkExecuted(e2.sbEntry)
		if c.OnStoreExec != nil {
			c.OnStoreExec(seq, e2.op.Addr, e2.op.Size, e2.sbEntry.Data)
		}
	}
	c.complete(e2)
}

func (c *Core) complete(e *robEntry) {
	e.done = true
	c.notifyWaiters(e)
}

func (c *Core) notifyWaiters(e *robEntry) {
	// Truncating (not nil-ing) keeps the slot's grown capacity for the
	// next op dispatched into this ring entry. Safe because waiters are
	// only appended while the producer is !done, and the loop body below
	// never dispatches: nothing can append into the backing array while
	// we iterate it.
	ws := e.waiters
	e.waiters = e.waiters[:0]
	for _, w := range ws {
		d := c.entry(w)
		if !d.valid || d.seq != w {
			continue
		}
		d.depCount--
		if d.depCount == 0 && !d.issued {
			c.readyPush(w)
		}
	}
}

// snoopInvalidate is the MOB snoop (the standard OOO-TSO safeguard):
// when an invalidating probe arrives for a line, any load that already
// bound a value from that line while an older load has not yet
// architecturally performed may have read too early — a remote write
// the older load will observe is about to supersede the bound value.
// Such loads are flagged to re-bind at commit. Real hardware squashes
// and replays; in a trace-driven model load values are observational,
// so re-binding from the visible memory at commit time is equivalent
// and costs no timing.
func (c *Core) snoopInvalidate(line uint64) {
	for i := range c.mob {
		m := &c.mob[i]
		if m.addr&^63 != line && (m.addr+uint64(m.size)-1)&^63 != line {
			continue
		}
		e := c.entry(m.seq)
		if e.valid && e.seq == m.seq && !e.replay && c.olderLoadPending(m.seq) {
			e.replay = true
		}
	}
}

// olderLoadPending reports whether any load older than seq has not yet
// architecturally performed: not bound, or bound but itself flagged to
// re-bind at commit (its effective read point is its commit cycle).
func (c *Core) olderLoadPending(seq uint64) bool {
	for s := c.robHead; s < seq; s++ {
		e := c.entry(s)
		if e.valid && e.seq == s && e.op.Kind == isa.Load && (!e.done || e.replay) {
			return true
		}
	}
	return false
}

// retireLoad drops the load's MOB record and, when an invalidation
// snoop flagged it, re-binds its value from the currently visible
// memory — the load architecturally performs at commit, which restores
// program order relative to every older load.
func (c *Core) retireLoad(e *robEntry) {
	for i := range c.mob {
		if c.mob[i].seq == e.seq {
			c.mob = append(c.mob[:i], c.mob[i+1:]...)
			break
		}
	}
	if e.replay && c.ReadVisible != nil && c.OnLoadValue != nil {
		c.OnLoadValue(c.ID, e.seq, e.op.Addr, e.op.Size, c.ReadVisible(e.op.Addr, e.op.Size))
	}
}

// tryLoad attempts the full load path; false means retry next cycle.
func (c *Core) tryLoad(e *robEntry) bool {
	if c.blockedByFence(e.seq) {
		return false
	}
	addr, size := e.op.Addr, e.op.Size
	seq := e.seq

	// 1. SB search (every load pays it: the CAM energy of the paper).
	c.cSBSearch.Inc()
	res, data := c.SB.Search(seq, addr, size)
	switch res {
	case FwdHit:
		c.cFwdHits.Inc()
		c.q.After2(c.cfg.ForwardLatency(), c.fwdDoneFn, seq, binary.LittleEndian.Uint64(data[:]))
		return true
	case FwdConflict:
		c.cFwdConflicts.Inc()
		return false
	}

	// 2. Mechanism-held stores (WCBs / TSOB).
	if c.mech != nil {
		mres, mdata := c.mech.Forward(addr, size)
		switch mres {
		case FwdHit:
			c.cMechFwd.Inc()
			c.q.After2(c.cfg.ForwardLatency(), c.fwdDoneFn, seq, binary.LittleEndian.Uint64(mdata[:]))
			return true
		case FwdConflict:
			return false
		}
	}

	// 3. L1D (which internally handles unauthorized-line aliasing).
	// The seq-based form answers through loadReply below — no per-load
	// closure, no per-load byte slice.
	return c.priv.LoadSeq(addr, size, seq)
}

// loadReply receives memory-system load data (packed little-endian),
// installed once as the private hierarchy's LoadReply at construction.
func (c *Core) loadReply(seq, data uint64) {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], data)
	c.finishLoad(seq, v, true)
}

// fwdDone completes a store-to-load forward (SB or mechanism CAM hit).
func (c *Core) fwdDone(seq, data uint64) {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], data)
	c.finishLoad(seq, v, false)
}

// finishLoad binds a load value. fromMem marks values read from the
// memory system (as opposed to forwarded from the core's own stores,
// which TSO always permits to be read early): only those enter the MOB
// and are subject to invalidation snoops.
func (c *Core) finishLoad(seq uint64, value [8]byte, fromMem bool) {
	e := c.entry(seq)
	if !e.valid || e.seq != seq || e.done {
		return
	}
	if fromMem {
		c.mob = append(c.mob, mobLoad{seq: seq, addr: e.op.Addr, size: e.op.Size})
	}
	if c.OnLoadValue != nil {
		c.OnLoadValue(c.ID, seq, e.op.Addr, e.op.Size, value)
	}
	c.complete(e)
}

// ---------- Dispatch ----------

// fetchNext returns the next op to dispatch, holding it in the
// in-struct lookahead slot (no per-op heap escape).
func (c *Core) fetchNext() *isa.MicroOp {
	if c.haveNext {
		return &c.nextOp
	}
	if c.eof {
		return nil
	}
	op, ok := c.stream.Next()
	if !ok {
		c.eof = true
		return nil
	}
	c.nextOp = op
	c.haveNext = true
	return &c.nextOp
}

func (c *Core) dispatch() {
	dispatched := 0
	var stall *stats.Counter
	for dispatched < c.frontWidth {
		op := c.fetchNext()
		if op == nil {
			break
		}
		if stall = c.stallOf(op); stall != nil {
			break
		}
		if !c.dispatchOp(*op) {
			stall = c.cStallSB
			break
		}
		c.haveNext = false
		dispatched++
	}
	if dispatched == 0 && stall != nil {
		stall.Inc()
	}
}

// stallOf names the stall counter of a full ROB, LQ or SB that keeps op
// from dispatching, or nil when it may dispatch.
func (c *Core) stallOf(op *isa.MicroOp) *stats.Counter {
	switch {
	case c.robCount == c.robCap:
		return c.cStallROB
	case op.Kind == isa.Load && c.lqCount == c.cfg.LQEntries:
		return c.cStallLQ
	case op.Kind == isa.Store && c.SB.Full():
		return c.cStallSB
	}
	return nil
}

func (c *Core) dispatchOp(op isa.MicroOp) bool {
	seq := c.seq
	var sbe *SBEntry
	if op.Kind == isa.Store {
		// Push before touching any other state so an overflow (dispatch
		// checked Full this cycle, so this means SB accounting drifted)
		// surfaces as a counted stall rather than a dead process.
		slots := len(c.SB.entries)
		sbe = c.SB.Push(seq, op.Addr, op.Size)
		if sbe == nil {
			c.cSBOverflow.Inc()
			return false
		}
		if len(c.SB.entries) != slots {
			c.rebindSB(seq)
		}
		c.tr.Emit(trace.SBEnqueue, int32(c.ID), c.q.Now(), op.Addr, seq, uint64(c.SB.Len()))
	}
	c.seq++
	if c.robCount == len(c.rob) {
		c.growROB()
	}
	e := c.entry(seq)
	*e = robEntry{seq: seq, op: op, valid: true, waiters: e.waiters[:0]}
	c.robCount++
	if c.robCount == 1 {
		c.robHead = seq
	}

	switch op.Kind {
	case isa.Load:
		c.lqCount++
		c.cLoads.Inc()
	case isa.Store:
		e.sbEntry = sbe
		c.cStores.Inc()
	case isa.Fence:
		c.fences = append(c.fences, seq)
	}

	// Wire data dependencies (backward distances).
	for _, d := range []uint16{op.Dep1, op.Dep2} {
		if d == 0 {
			continue
		}
		pseq := seq - uint64(d)
		if pseq >= c.robHead && pseq < seq {
			p := c.entry(pseq)
			if p.valid && p.seq == pseq && !p.done {
				p.waiters = append(p.waiters, seq)
				e.depCount++
			}
		}
	}
	if e.depCount == 0 {
		c.readyPush(seq)
	}
	return true
}
