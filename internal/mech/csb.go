package mech

import (
	"cmp"
	"slices"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/memsys"
	"tusim/internal/stats"
	"tusim/internal/trace"
	"tusim/internal/wcb"
)

// CSB is the Coalescing Store Buffer (Ros & Kaxiras, ISCA'18): it
// coalesces committed stores across non-consecutive lines in the WCBs
// and writes each atomic group to the L1D *after* acquiring write
// permission for every line in the group (acquired one at a time in
// lex order, which guarantees forward progress). While a group waits
// for permissions the SB stops draining — CSB's weakness on
// long-latency store misses, which TUS removes.
type CSB struct {
	lookahead // over the SB; its priv is the core's hierarchy
	core      *cpu.Core
	cfg       *config.Config
	who       memsys.Requester // a group line whose miss waits on who is being acquired

	wcbs     *wcb.Set
	flushing []*wcb.Buffer
	// lineScratch holds the flushing group's lines, lex-sorted by startFlush.
	lineScratch []uint64
	idle        int
	waited      uint64 // PermEpoch before the last attempt that left the group waiting

	cDrained, cBlocked, cGroupWrites *stats.Counter
	cCoalesced, cWCBSearch           *stats.Counter

	tr *trace.Tracer
}

// csbIdleFlush is how many drain-idle cycles the WCBs may hold stores
// before being pushed to the cache (bounds store invisibility).
const csbIdleFlush = 8

// NewCSB builds the coalescing store buffer policy.
func NewCSB(core *cpu.Core, cfg *config.Config, st *stats.Set) *CSB {
	return &CSB{
		lookahead:    lookahead{ring: core.SB, priv: core.Priv(), k: drainLookahead, ref: cfg.Reference},
		core:         core,
		cfg:          cfg,
		who:          core.Priv().AddRequester("csb", nil),
		wcbs:         wcb.NewSet(cfg.WCBCount, cfg.LexBits),
		cDrained:     st.Counter("stores_drained"),
		cBlocked:     st.Counter("drain_blocked_cycles"),
		cGroupWrites: st.Counter("csb_group_writes"),
		cCoalesced:   st.Counter("csb_coalesced_stores"),
		cWCBSearch:   st.Counter("wcb_searches"),
	}
}

// Name implements cpu.DrainMechanism.
func (c *CSB) Name() string { return config.CSB.String() }

// SetTracer attaches (or detaches, with nil) the lifecycle tracer.
func (c *CSB) SetTracer(t *trace.Tracer) { c.tr = t }

// Tick implements cpu.DrainMechanism.
func (c *CSB) Tick() {
	if c.flushing != nil {
		epoch := c.priv.PermEpoch()
		c.advanceFlush()
		if c.flushing != nil {
			c.waited = epoch
			c.cBlocked.Inc()
			return
		}
	}

	// RFOs run ahead of the drain as in the baseline, and the WCBs
	// accept up to commit-width stores per cycle (coalescing is not
	// L1D-port limited).
	c.walk()
	for n := 0; n < c.cfg.CommitWidth; n++ {
		e := c.core.SB.Head()
		if e == nil || !e.Committed {
			if n == 0 && !c.wcbs.Empty() {
				// Idle: eventually push lingering coalesced stores out.
				c.idle++
				if c.idle >= csbIdleFlush {
					c.startFlush()
				}
			}
			return
		}
		c.idle = 0
		switch c.wcbs.Insert(e.Addr, e.Data[:e.Size]) {
		case wcb.Inserted:
			c.tr.Emit(trace.WCBCoalesce, int32(c.core.ID), c.core.Now(), e.Addr, e.Seq, 0)
			c.core.SB.Pop()
			c.cDrained.Inc()
			c.cCoalesced.Inc()
		case wcb.NeedFlush, wcb.LexConflict:
			c.startFlush()
			c.cBlocked.Inc()
			return
		}
	}
}

// startFlush takes the oldest group and sorts its lines into lex order
// once; the group cannot change until Release.
func (c *CSB) startFlush() {
	c.flushing = c.wcbs.OldestGroup()
	lines := c.lineScratch[:0]
	for _, b := range c.flushing {
		lines = append(lines, b.Line)
	}
	slices.SortFunc(lines, func(a, b uint64) int {
		return cmp.Compare(wcb.Lex(a, c.cfg.LexBits), wcb.Lex(b, c.cfg.LexBits))
	})
	c.lineScratch = lines
	c.advanceFlush()
}

// advanceFlush acquires permissions in lex order and performs the
// atomic group write once every line is held.
func (c *CSB) advanceFlush() {
	if c.flushing == nil {
		return
	}
	// Issue permission requests in lex order but in parallel: the order
	// in which RFOs *start* follows the global order (forward
	// progress), while overlapping their latencies keeps the drain off
	// the critical path when several group lines miss.
	allHeld := true
	for _, ln := range c.lineScratch {
		if c.priv.Writable(ln) {
			continue
		}
		allHeld = false
		if !c.priv.Awaits(ln, c.who) {
			c.priv.RequestWritableAs(ln, false, true, c.who)
		}
	}
	if !allHeld {
		return
	}
	// All permissions held: the group must also fit the L1D.
	if !c.priv.L1WaysAvailable(c.lineScratch, false) {
		return
	}
	for _, b := range c.flushing {
		if !c.priv.StoreVisibleLine(b.Line, &b.Data, b.Mask) {
			// A permission was stolen between the check and the write;
			// restart acquisition next cycle.
			return
		}
	}
	c.cGroupWrites.Inc()
	c.wcbs.Release(c.flushing)
	c.flushing = nil
	c.idle = 0
}

// FinalizeStats exports WCB search counts at run end.
func (c *CSB) FinalizeStats() { c.cWCBSearch.Add(c.wcbs.Searches - c.cWCBSearch.Value()) }

// Forward implements cpu.DrainMechanism (WCBs are searched on loads).
func (c *CSB) Forward(addr uint64, size uint8) (cpu.ForwardResult, [8]byte) {
	hit, conflict, out := c.wcbs.Forward(addr, size)
	switch {
	case hit:
		return cpu.FwdHit, out
	case conflict:
		// Force the partial data out so the load can complete from L1D.
		if c.flushing == nil {
			c.startFlush()
		}
		return cpu.FwdConflict, out
	}
	return cpu.FwdMiss, out
}

// Drained implements cpu.DrainMechanism.
func (c *CSB) Drained() bool { return c.wcbs.Empty() && c.flushing == nil }

// Quiescent implements cpu.DrainMechanism: a flushing group waits while
// PermEpoch is what its last attempt started from (as lookahead's walk
// does); else the drain is idle only with nothing to drain or flush.
func (c *CSB) Quiescent(fence bool) cpu.Idle {
	switch e := c.core.SB.Head(); {
	case c.flushing != nil && c.waited == c.priv.PermEpoch():
		return cpu.Idle{Ticks: cpu.Forever, Blocked: c.cBlocked}
	case c.flushing == nil && !fence && c.still() && (e == nil || !e.Committed) && c.wcbs.Empty():
		return cpu.Idle{Ticks: cpu.Forever}
	}
	return cpu.Idle{}
}

// FlushDone reports whether every coalesced store reached the cache;
// while stores linger the idle timer pushes them out, so a waiting
// fence always completes.
func (c *CSB) FlushDone() bool {
	if c.Drained() {
		return true
	}
	// A fence is waiting: flush immediately rather than idling.
	if c.flushing == nil {
		c.startFlush()
	}
	return false
}
