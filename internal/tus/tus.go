// Package tus implements Temporarily Unauthorized Stores, the paper's
// contribution: committed stores leave the store buffer through the
// write-combining buffers into the L1D *without* write permission,
// remaining invisible to coherence until permission arrives; a Write
// Ordering Queue (WOQ) tracks the x86-TSO order (and the atomic groups
// created by store cycles) in which lines become visible; and an
// authorization unit based on a global lexicographical order decides —
// without speculation or rollback — which core relinquishes lines when
// external requests hit unauthorized data (Sec. III and IV).
package tus

import (
	"slices"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/lmap"
	"tusim/internal/memsys"
	"tusim/internal/stats"
	"tusim/internal/trace"
	"tusim/internal/wcb"
)

// woqEntry mirrors the paper's WOQ record: line location, atomic group
// id, written-byte tracking (held by the L1D line here), a CanCycle
// bit, and a Ready bit. We additionally track permission state to
// drive the lex-gated re-request rule.
type woqEntry struct {
	line      uint64
	born      uint64 // admission cycle (age-bound auditing)
	group     int
	canCycle  bool
	ready     bool
	hasPerm   bool
	requested bool
	// gated marks a line that lost (or was denied) its permission to a
	// lex-order conflict; it may only re-request under the Sec. III-C
	// rule (lex-least missing line of the WOQ-head atomic group).
	// Non-gated retries (MSHR pressure, transient NACKs) re-issue
	// freely with a backoff.
	gated   bool
	retryAt uint64
}

// flushItem is one line of an atomic group headed for the L1D.
type flushItem struct {
	line uint64
	data memsys.LineData
	mask memsys.Mask
}

// lexPair is one (lex key, line) seen while checking a candidate
// atomic group for duplicate lex keys.
type lexPair struct{ key, line uint64 }

// TUS is the drain mechanism; it also implements
// memsys.UnauthorizedHandler (the authorization unit + WOQ side).
type TUS struct {
	core *cpu.Core
	priv *memsys.Private
	cfg  *config.Config
	q    *event.Queue
	who  memsys.Requester // permission requests go out as this requester

	wcbs    *wcb.Set
	woq     []*woqEntry
	byLine  *lmap.Map[woqEntry]
	woqPool *lmap.Pool[woqEntry]
	nextGID int

	pending []flushItem   // group awaiting L1D/WOQ admission
	pendBuf []*wcb.Buffer // WCB buffers backing the pending group (nil for bypass)
	// Scratch backings reused across drain cycles (one outstanding
	// group / admission attempt at a time).
	flushScratch []flushItem
	wayScratch   []uint64
	lexScratch   []lexPair
	idle         int
	faults       *faults.Injector
	// cFaultFlush counts injected early WCB flushes; allocated only when
	// an injector is installed.
	cFaultFlush *stats.Counter

	cDrained, cBlocked     *stats.Counter
	cVisibleGroups         *stats.Counter
	cWOQSearch, cWOQPeak   *stats.Counter
	cCycleMerges           *stats.Counter
	cLexDelays, cLexRelinq *stats.Counter
	cGroupLen              *stats.Counter
	cStoresVisible         *stats.Counter
	cWCBSearch             *stats.Counter

	hWOQOcc, hUnauthRes *stats.Histogram

	tr *trace.Tracer
}

// tusIdleFlush bounds how long coalesced stores linger in the WCBs
// when the SB drain is idle.
const tusIdleFlush = 4

// New builds the TUS mechanism for a core and registers it as the
// private hierarchy's unauthorized handler.
func New(core *cpu.Core, cfg *config.Config, q *event.Queue, st *stats.Set) *TUS {
	ref := cfg.Reference
	t := &TUS{
		core:           core,
		priv:           core.Priv(),
		cfg:            cfg,
		q:              q,
		wcbs:           wcb.NewSet(cfg.WCBCount, cfg.LexBits),
		byLine:         lmap.NewRef[woqEntry](ref),
		woqPool:        lmap.NewPoolRef[woqEntry](ref),
		cDrained:       st.Counter("stores_drained"),
		cBlocked:       st.Counter("drain_blocked_cycles"),
		cVisibleGroups: st.Counter("tus_visible_groups"),
		cWOQSearch:     st.Counter("woq_searches"),
		cWOQPeak:       st.Counter("woq_peak_occupancy"),
		cCycleMerges:   st.Counter("tus_cycle_merges"),
		cLexDelays:     st.Counter("tus_lex_delays"),
		cLexRelinq:     st.Counter("tus_lex_relinquishes"),
		cGroupLen:      st.Counter("tus_group_lines"),
		cStoresVisible: st.Counter("tus_lines_made_visible"),
		cWCBSearch:     st.Counter("wcb_searches"),
		hWOQOcc:        st.Histogram("woq_occupancy"),
		hUnauthRes:     st.Histogram("tus_unauth_residency"),
	}
	t.priv.SetHandler(t)
	t.who = t.priv.AddRequester("tus", t.permDone)
	return t
}

// SetTracer attaches (or detaches, with nil) the lifecycle tracer.
func (t *TUS) SetTracer(tr *trace.Tracer) { t.tr = tr }

// SetFaults installs a fault injector on the drain path (nil disables).
func (t *TUS) SetFaults(in *faults.Injector, st *stats.Set) {
	t.faults = in
	if in != nil {
		t.cFaultFlush = st.Counter("fault_wcb_flushes")
	}
}

// Name implements cpu.DrainMechanism.
func (t *TUS) Name() string { return config.TUS.String() }

func (t *TUS) lex(line uint64) uint64 { return wcb.Lex(line, t.cfg.LexBits) }

// ---------- Drain path ----------

// Tick implements cpu.DrainMechanism.
func (t *TUS) Tick() {
	t.hWOQOcc.Observe(uint64(len(t.woq)))
	t.advanceVisibility()
	t.reRequest()

	if t.pending == nil && !t.wcbs.Empty() && t.faults.WCBFlush() {
		// Force an early flush of the oldest coalescing group — legal
		// (equivalent to idle-timeout expiry), but it stresses the
		// WOQ/admission path with smaller, more frequent atomic groups.
		t.cFaultFlush.Inc()
		t.startFlushOldest()
	}

	if t.pending != nil {
		if !t.tryAdmit() {
			t.cBlocked.Inc()
			return
		}
	}

	// Coalescing decouples the SB drain from the L1D write port: up to
	// commit-width committed stores enter the WCBs per cycle (the
	// paper's L1D-bandwidth argument for the WCB path).
	for n := 0; n < t.cfg.CommitWidth; n++ {
		e := t.core.SB.Head()
		if e == nil || !e.Committed {
			if n == 0 && !t.wcbs.Empty() {
				t.idle++
				if t.idle >= tusIdleFlush {
					t.startFlushOldest()
				}
			}
			return
		}
		t.idle = 0

		if !t.cfg.TUSCoalesce {
			// Ablation: every store is its own single-line atomic group
			// and pays its own L1D write — at most one per cycle (the
			// L1D write port coalescing normally relieves).
			var it flushItem
			it.line = e.Line()
			off := e.Addr & 63
			copy(it.data[off:], e.Data[:e.Size])
			it.mask = e.Mask()
			t.pending = []flushItem{it}
			t.pendBuf = nil
			if t.tryAdmit() {
				t.core.SB.Pop()
				t.cDrained.Inc()
				return
			}
			// Admission failed: un-pend and retry with the same store.
			t.pending, t.pendBuf = nil, nil
			t.cBlocked.Inc()
			return
		}

		switch t.wcbs.Insert(e.Addr, e.Data[:e.Size]) {
		case wcb.Inserted:
			t.tr.Emit(trace.WCBCoalesce, int32(t.core.ID), t.q.Now(), e.Addr, e.Seq, 0)
			t.core.SB.Pop()
			t.cDrained.Inc()
		case wcb.NeedFlush, wcb.LexConflict:
			t.startFlushOldest()
			t.cBlocked.Inc()
			return
		}
	}
}

func (t *TUS) startFlushOldest() {
	group := t.wcbs.OldestGroup()
	if group == nil {
		return
	}
	items := t.flushScratch[:0]
	for _, b := range group {
		items = append(items, flushItem{line: b.Line, data: b.Data, mask: b.Mask})
	}
	t.flushScratch = items
	t.pending = items
	t.pendBuf = group
	t.tryAdmit()
}

// tryAdmit writes the pending atomic group into the L1D + WOQ if every
// admission check passes (Fig. 7 left side). All lines go in the same
// cycle — the group is atomic.
func (t *TUS) tryAdmit() bool {
	items := t.pending

	// Classify each line against the current L1D/WOQ state.
	newEntries := 0
	cycleHit := false
	minHitIdx := -1
	needWays, missing := t.wayScratch[:0], false
	for _, it := range items {
		pl := t.priv.Lookup(it.line)
		switch {
		case pl != nil && pl.NotVisible:
			e := t.byLine.Get(it.line)
			if e == nil {
				panic(faults.Violationf("tus", t.core.ID, it.line, "woq-tracks-notvisible",
					"not-visible line missing from WOQ"))
			}
			t.cWOQSearch.Inc()
			if !e.canCycle {
				return false // cycles disabled while a conflict resolves
			}
			// The merge absorbs the hit entry's whole group, whose
			// oldest member may sit before the hit entry itself.
			idx := t.firstOfGroup(e.group)
			if minHitIdx < 0 || idx < minHitIdx {
				minHitIdx = idx
			}
			cycleHit = true
		default:
			newEntries++
			needWays = append(needWays, it.line)
			missing = missing || pl == nil || !pl.InL1
		}
	}
	t.wayScratch = needWays

	if len(t.woq)+newEntries > t.cfg.WOQEntries {
		return false
	}
	// With every group line resident the commit allocates nothing, so
	// the lines it pins keep the ways they hold.
	if missing && !t.priv.L1WaysAvailable(needWays, true) {
		return false
	}

	// Resulting atomic group size (groups are contiguous WOQ runs; a
	// cycle merge absorbs everything from the hit entry to the tail).
	mergedLen := newEntries
	if cycleHit {
		mergedLen += len(t.woq) - minHitIdx
	}
	if mergedLen > t.cfg.MaxAtomicGroup {
		return false
	}
	// No two distinct lines of the final group may share a lex key.
	if t.lexConflictInMerged(items, minHitIdx, cycleHit) {
		return false
	}

	// Commit the group.
	t.nextGID++
	gid := t.nextGID
	for _, it := range items {
		pl := t.priv.Lookup(it.line)
		switch {
		case pl != nil && pl.NotVisible:
			t.priv.StoreUnauthorizedHitLine(it.line, &it.data, it.mask)
		case pl != nil && (pl.State == memsys.StateE || pl.State == memsys.StateM):
			// Authorized hit: L2 keeps the old copy; ready immediately.
			if !t.priv.StoreOverVisibleLine(it.line, &it.data, it.mask) {
				panic(faults.Violationf("tus", t.core.ID, it.line, "admission-checked",
					"StoreOverVisibleLine failed after admission checks"))
			}
			e := t.woqPool.Get()
			*e = woqEntry{line: it.line, born: t.q.Now(), group: gid, canCycle: true, ready: true, hasPerm: true}
			t.append(e)
			t.tr.Emit(trace.AuthWrite, int32(t.core.ID), t.q.Now(), it.line, 0, uint64(gid))
		default:
			if !t.priv.StoreUnauthorizedLine(it.line, &it.data, it.mask) {
				panic(faults.Violationf("tus", t.core.ID, it.line, "admission-checked",
					"StoreUnauthorizedLine failed after admission checks"))
			}
			e := t.woqPool.Get()
			*e = woqEntry{line: it.line, born: t.q.Now(), group: gid, canCycle: true}
			t.append(e)
			t.tr.Emit(trace.UnauthWrite, int32(t.core.ID), t.q.Now(), it.line, 0, uint64(gid))
			t.request(e)
		}
	}
	if cycleHit {
		// Copy the hit entry's group id over everything younger.
		t.cCycleMerges.Inc()
		g := t.woq[minHitIdx].group
		for i := minHitIdx; i < len(t.woq); i++ {
			t.woq[i].group = g
		}
	}
	t.cGroupLen.Add(uint64(len(items)))

	if t.pendBuf != nil {
		t.wcbs.Release(t.pendBuf)
	}
	t.pending, t.pendBuf = nil, nil
	if uint64(len(t.woq)) > t.cWOQPeak.Value() {
		t.cWOQPeak.Add(uint64(len(t.woq)) - t.cWOQPeak.Value())
	}
	t.advanceVisibility()
	return true
}

func (t *TUS) lexConflictInMerged(items []flushItem, minHitIdx int, cycleHit bool) bool {
	// Quadratic scan over a scratch pair list: candidate groups are at
	// most MaxAtomicGroup plus the merged WOQ tail, so this stays small
	// and allocation-free where the old per-call map did not.
	seen := t.lexScratch[:0]
	defer func() { t.lexScratch = seen[:0] }()
	add := func(line uint64) bool {
		k := t.lex(line)
		for _, p := range seen {
			if p.key == k && p.line != line {
				return true
			}
		}
		seen = append(seen, lexPair{key: k, line: line})
		return false
	}
	for _, it := range items {
		if add(it.line) {
			return true
		}
	}
	if cycleHit {
		for i := minHitIdx; i < len(t.woq); i++ {
			if add(t.woq[i].line) {
				return true
			}
		}
	}
	return false
}

func (t *TUS) append(e *woqEntry) {
	t.woq = append(t.woq, e)
	t.byLine.Put(e.line, e)
}

func (t *TUS) firstOfGroup(gid int) int {
	for i, o := range t.woq {
		if o.group == gid {
			return i
		}
	}
	// Invariant: gid came from a live byLine entry, and byLine members
	// are always WOQ members.
	panic(faults.Violationf("tus", t.core.ID, 0, "group-in-woq",
		"group %d not found in WOQ", gid))
}

// ---------- Permission requests ----------

func (t *TUS) request(e *woqEntry) {
	line := e.line
	e.requested = true
	var gated uint64
	if e.gated {
		gated = 1
	}
	t.tr.Emit(trace.PermRequest, int32(t.core.ID), t.q.Now(), line, 0, gated)
	if !t.priv.RequestWritableAs(line, false, false, t.who) {
		// Could not even start (MSHRs full): plain retry, not a lex gate.
		e.requested = false
		e.retryAt = t.q.Now() + 1
	}
}

// permDone hears the outcome of every permission request TUS made or
// joined (TUS's registered requester).
func (t *TUS) permDone(line uint64, granted bool) {
	if granted {
		return // HandleFill already recorded it
	}
	// NACKed: a remote authorization unit delayed us (lex gate) or the
	// request overflowed a queue. Re-request with a backoff; mark it
	// gated so a contended line follows the Sec. III-C re-request rule
	// instead of hammering the holder.
	if cur := t.byLine.Get(line); cur != nil {
		cur.requested = false
		cur.gated = true
		cur.retryAt = t.q.Now() + t.cfg.NetLatency
	}
}

// reRequest re-issues permission requests. Ungated entries (initial
// request failed to start, e.g. MSHR pressure) retry freely across the
// whole WOQ. Gated entries — lines lost or denied under the lex order —
// ask again only when they are the lex-least permission-lacking line of
// the atomic group at the WOQ head (Sec. III-C), which guarantees the
// system-wide acquisition order that makes the protocol deadlock-free.
func (t *TUS) reRequest() {
	if len(t.woq) == 0 {
		return
	}
	now := t.q.Now()
	budget := 4 // request-port bandwidth per cycle
	for _, e := range t.woq {
		if budget == 0 {
			return
		}
		if e.hasPerm || e.requested || e.gated || now < e.retryAt {
			continue
		}
		t.request(e)
		budget--
	}
	// Gated: only the lex-least missing line of the head group.
	if best := t.headLeast(); best != nil && best.gated && now >= best.retryAt {
		t.request(best)
	}
}

// headLeast is the lex-least line of the WOQ head's group that lacks
// permission and has no request out, or nil.
func (t *TUS) headLeast() *woqEntry {
	var best *woqEntry
	for _, e := range t.woq {
		if e.group != t.woq[0].group {
			break
		}
		if !e.hasPerm && !e.requested && (best == nil || t.lex(e.line) < t.lex(best.line)) {
			best = e
		}
	}
	return best
}

// ---------- Visibility ----------

// advanceVisibility publishes ready atomic groups from the WOQ head,
// in order, atomically per group (Fig. 7 (4)).
func (t *TUS) advanceVisibility() {
	for len(t.woq) > 0 {
		gid := t.woq[0].group
		n := 0
		ready := true
		for _, e := range t.woq {
			if e.group != gid {
				break
			}
			n++
			if !e.ready {
				ready = false
			}
		}
		if !ready {
			return
		}
		now := t.q.Now()
		for i := 0; i < n; i++ {
			e := t.woq[i]
			t.priv.MakeVisible(e.line)
			t.byLine.Delete(e.line)
			t.cStoresVisible.Inc()
			var res uint64
			if now >= e.born {
				res = now - e.born
			}
			t.hUnauthRes.Observe(res)
			t.tr.Emit(trace.WOQRelease, int32(t.core.ID), now, e.line, 0, res)
			t.woqPool.Put(e)
		}
		// Compact in place: re-slicing from the head would walk the
		// backing array forward and make every later append reallocate.
		t.woq = slices.Delete(t.woq, 0, n)
		t.cVisibleGroups.Inc()
	}
}

// ---------- memsys.UnauthorizedHandler (authorization unit) ----------

// HandleProbe implements the lex-order deadlock-avoidance decision of
// Sec. III-C: delay the external request when this core holds
// permissions for every lex-lesser line among the stores up to (and
// including) the probed line's atomic group; otherwise relinquish the
// probed line and every held line above the lex-least missing one,
// restoring the invariant that held permissions form a lex prefix.
func (t *TUS) HandleProbe(line uint64) memsys.ProbeAction {
	t.cWOQSearch.Inc()
	e := t.byLine.Get(line)
	if e == nil {
		// Not tracked (should not happen): delay is always safe for
		// the prober, which will retry.
		return memsys.ActionDelay
	}
	// Disable new cycles involving this atomic group so the lex order
	// cannot change under the resolution.
	end := 0
	for i, o := range t.woq {
		if o.group == e.group {
			o.canCycle = false
			end = i
		}
	}

	probeLex := t.lex(line)
	violation := false
	for i := 0; i <= end; i++ {
		o := t.woq[i]
		if !o.hasPerm && t.lex(o.line) < probeLex {
			violation = true
			break
		}
	}
	if !violation {
		t.cLexDelays.Inc()
		return memsys.ActionDelay
	}
	// Relinquish the probed line (the memory system serves the stale
	// authorized copy from the private L2 and transfers ownership
	// atomically with the probe reply). Other lex-violating lines are
	// effectively in the paper's "retry" state: each one relinquishes
	// the moment its own invalidation arrives, so ownership always
	// changes hands synchronously and the directory never diverges.
	t.cLexRelinq.Inc()
	return memsys.ActionRelinquish
}

// HandleFill implements memsys.UnauthorizedHandler: write permission
// and data arrived and were combined under the mask.
func (t *TUS) HandleFill(line uint64) {
	t.cWOQSearch.Inc()
	e := t.byLine.Get(line)
	if e == nil {
		return
	}
	e.hasPerm = true
	e.ready = true
	e.requested = false
	e.gated = false
	t.tr.Emit(trace.PermGrant, int32(t.core.ID), t.q.Now(), line, 0, 0)
	t.advanceVisibility()
}

// HandleRelinquish implements memsys.UnauthorizedHandler.
func (t *TUS) HandleRelinquish(line uint64) {
	e := t.byLine.Get(line)
	if e == nil {
		return
	}
	e.hasPerm = false
	e.ready = false
	e.requested = false
	e.gated = true
	e.retryAt = t.q.Now() + t.cfg.NetLatency
	t.tr.Emit(trace.PermRelinquish, int32(t.core.ID), t.q.Now(), line, 0, 0)
}

// ---------- Load path / fences ----------

// Forward implements cpu.DrainMechanism: loads search the WCBs
// (Fig. 1 (3)); unauthorized L1D lines alias inside memsys.
func (t *TUS) Forward(addr uint64, size uint8) (cpu.ForwardResult, [8]byte) {
	hit, conflict, out := t.wcbs.Forward(addr, size)
	switch {
	case hit:
		return cpu.FwdHit, out
	case conflict:
		if t.pending == nil {
			t.startFlushOldest()
		}
		return cpu.FwdConflict, out
	}
	return cpu.FwdMiss, out
}

// Drained implements cpu.DrainMechanism.
func (t *TUS) Drained() bool {
	return t.wcbs.Empty() && len(t.woq) == 0 && t.pending == nil
}

// FlushDone implements cpu.DrainMechanism: a serializing event waits
// for the WCBs *and* the WOQ to empty (Sec. III-A).
func (t *TUS) FlushDone() bool {
	if t.Drained() {
		return true
	}
	if t.pending == nil && !t.wcbs.Empty() {
		t.startFlushOldest()
	}
	return false
}

// Quiescent implements cpu.DrainMechanism: nothing to admit, insert or
// flush, and no line to ask again before the retryAt reRequest acts on
// (the WOQ head group is never all ready here: what readies publishes).
func (t *TUS) Quiescent(fence bool) cpu.Idle {
	if e := t.core.SB.Head(); t.pending != nil || e != nil && e.Committed || !t.wcbs.Empty() || fence && len(t.woq) == 0 {
		return cpu.Idle{}
	}
	idle, now := cpu.Idle{Ticks: cpu.Forever, Occ: t.hWOQOcc, OccLen: uint64(len(t.woq))}, t.q.Now()
	wake := func(e *woqEntry) { idle.Ticks = min(idle.Ticks, max(e.retryAt, now+1)-now-1) }
	for _, e := range t.woq {
		if !e.hasPerm && !e.requested && !e.gated {
			wake(e)
		}
	}
	if e := t.headLeast(); e != nil && e.gated {
		wake(e)
	}
	return idle
}

// FinalizeStats exports WCB search counts at run end.
func (t *TUS) FinalizeStats() {
	c := t.cWCBSearch
	c.Add(t.wcbs.Searches - c.Value())
}

// WOQInfo is one WOQ entry's state exported for auditing and crash
// snapshots.
type WOQInfo struct {
	Line      uint64 `json:"line"`
	Group     int    `json:"group"`
	Lex       uint64 `json:"lex"`
	HasPerm   bool   `json:"has_perm"`
	Ready     bool   `json:"ready"`
	Requested bool   `json:"requested"`
	Gated     bool   `json:"gated"`
	CanCycle  bool   `json:"can_cycle"`
	Born      uint64 `json:"born"`
}

// AuditWOQ snapshots the WOQ in order (head first).
func (t *TUS) AuditWOQ() []WOQInfo {
	out := make([]WOQInfo, len(t.woq))
	for i, e := range t.woq {
		out[i] = WOQInfo{
			Line: e.line, Group: e.group, Lex: t.lex(e.line),
			HasPerm: e.hasPerm, Ready: e.ready, Requested: e.requested,
			Gated: e.gated, CanCycle: e.canCycle, Born: e.born,
		}
	}
	return out
}
