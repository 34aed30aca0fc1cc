package memsys

import (
	"slices"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/lmap"
	"tusim/internal/stats"
	"tusim/internal/trace"
)

// MESI is the coherence permission a private hierarchy holds for a line.
type MESI uint8

// Coherence states.
const (
	StateI MESI = iota
	StateS
	StateE
	StateM
)

// String returns the one-letter state name.
func (s MESI) String() string { return [...]string{"I", "S", "E", "M"}[s] }

// PLine is the private hierarchy's view of one cache line. It fuses the
// L1D and private-L2 copies of a line: the L2 copy is the authorized
// backup the coherence protocol can always see, while the L1 copy may
// additionally hold temporarily unauthorized (not-visible) store data.
type PLine struct {
	Line  uint64
	State MESI
	InL1  bool
	InL2  bool
	// L1Data is the core-side copy (possibly containing unauthorized
	// stores); L2Data is the last authorized version.
	L1Data  LineData
	L2Data  LineData
	L1Dirty bool // L1Data is newer than L2Data
	L2Dirty bool // L2Data is newer than the LLC copy

	// TUS state (Sec. IV, Fig. 6): NotVisible hides the L1 copy from
	// coherence; Ready means write permission was obtained and memory
	// data was combined under UMask; UMask marks unauthorized bytes.
	NotVisible bool
	Ready      bool
	UMask      Mask
	// mshr and wb name the line's miss and write-back in flight by
	// record id (0 = none).
	mshr, wb uint32

	lru1, lru2  uint64
	loadWaiters []loadWait
}

// loadWait is one pending read, identified by seq and answered through
// the set-once LoadReply callback with the bytes packed little-endian
// into a uint64 — no per-load closure, no per-load []byte.
type loadWait struct {
	addr uint64
	seq  uint64
	size uint8
}

// mshrEntry is one miss in flight and the private side's transaction
// record: the directory's answer and the NACK retry name it by id.
type mshrEntry struct {
	id        uint32
	line      uint64
	born      uint64 // allocation cycle (age-bound auditing)
	wantM     bool
	upgradeM  bool // a writable request arrived while a GetS was in flight
	autoRetry bool
	// prefetch marks the MSHR-pool class; lowLane additionally routes
	// the DRAM access through the low-priority lane (speculative read
	// prefetches only — write-permission prefetches are accurate and
	// stay on the demand lane).
	prefetch bool
	lowLane  bool
	loads    []loadWait
	writers  []Requester // waiting on the write permission, in arrival order
}

// wbEntry is one write-back in flight, named by id like an MSHR.
type wbEntry struct {
	id      uint32
	line    uint64
	data    LineData
	retired bool // a probe already transferred ownership
}

// Requester names a write-permission client registered once with
// AddRequester (TUS, CSB): its requests carry no callback; the MSHR
// records the handle and the outcome reaches the registered func. The
// zero Requester is nobody.
type Requester uint8

type requester struct {
	name string // crash reports list waiters by it
	done func(line uint64, ok bool)
}

type lineCallback struct {
	line uint64
	cb   func(ok bool)
}

// ProbeKind distinguishes invalidating probes (GetM) from downgrades (GetS).
type ProbeKind uint8

// Probe kinds.
const (
	ProbeInv ProbeKind = iota
	ProbeDowngrade
)

// ProbeResult is the private hierarchy's synchronous answer to a probe.
type ProbeResult uint8

// Probe results.
const (
	// ProbeAck: done; the dirty copy travels back when there is one.
	ProbeAck ProbeResult = iota
	// ProbeNack: TUS delayed the request (requester must retry).
	ProbeNack
	// ProbeStale: TUS relinquished the line; the old authorized copy
	// from the private L2 travels back (Sec. III-C step 8).
	ProbeStale
)

// ProbeAction is the UnauthorizedHandler's verdict on an external probe
// hitting a not-visible line the core holds permission for.
type ProbeAction uint8

// Handler verdicts.
const (
	// ActionDelay NACKs the external request (this core's older stores
	// all respect lex order, so it may proceed first).
	ActionDelay ProbeAction = iota
	// ActionRelinquish gives up the permission and serves the stale
	// authorized data from the private L2.
	ActionRelinquish
)

// UnauthorizedHandler is how TUS plugs into the coherence protocol.
// All methods are called synchronously from memory-system events.
type UnauthorizedHandler interface {
	// HandleProbe decides the fate of an external probe that reached a
	// line whose L1 copy is not visible while this core holds write
	// permission for it.
	HandleProbe(line uint64) ProbeAction
	// HandleFill runs after a writable fill merged memory data under
	// the unauthorized mask and marked the line ready.
	HandleFill(line uint64)
	// HandleRelinquish runs after the line's permission was surrendered
	// (the L1 copy reverts to unauthorized).
	HandleRelinquish(line uint64)
}

// Private models one core's L1D + private L2 (both write-back,
// write-allocate, L1D inclusive in L2 — Table I).
//
// lines is the one per-line index; a line's record names its miss and
// write-back in the mshrRecs and wbRecs pools. All three are lmap
// containers with slab-pooled structs, so the steady-state hit/miss
// machinery allocates nothing (see package lmap for reference mode).
type Private struct {
	ID  int
	cfg *config.Config
	q   *event.Queue
	dir *Directory
	st  *stats.Set

	lines    *lmap.Map[PLine]
	linePool *lmap.Pool[PLine]
	l1, l2   setTable[PLine]

	mshrRecs  *lmap.Records[mshrEntry]
	misses    int // lines naming a miss in flight (both MSHR pools)
	mshrLimit int
	// prefetch MSHRs live in their own pool so speculative traffic
	// never blocks demand misses.
	prefMSHRs     int
	prefMSHRLimit int
	// permEpoch advances whenever the outcome of a KeepWritable call may
	// have changed: a line's MESI state is written (setState), a miss is
	// tracked (track) or freed (freeMSHR), a write-back lands
	// (writeBackDone), or MSHRFree consulted a fault injector. See
	// PermEpoch.
	permEpoch uint64
	// See LossEpoch; refused: a refusal for lack of an MSHR awaits a free.
	lossEpoch, keepCalls uint64
	refused              bool

	wbRecs *lmap.Records[wbEntry]

	// requesters are the registered clients (handle = index+1); the
	// cbReq requester answers RequestWritable's callbacks, oldest first.
	requesters []requester
	callbacks  []lineCallback
	cbReq      Requester
	// Event handlers bound once (see resend, resendWB, grantNow).
	resendFn, resendWBFn, grantFn event.Func2

	handler UnauthorizedHandler
	lruTick uint64
	faults  *faults.Injector
	// cFaultMSHR counts injected MSHR-pressure faults; allocated only
	// when an injector is installed so fault-free stat sets are
	// unchanged.
	cFaultMSHR *stats.Counter

	// OnDemandMiss lets a prefetcher observe the demand miss stream.
	OnDemandMiss func(addr uint64, store bool)
	// OnStoreVisible fires whenever store bytes become globally visible
	// (consumed by the TSO checker).
	OnStoreVisible func(line uint64, mask Mask, data *LineData)
	// OnLineLost fires when an invalidating probe (a remote writer)
	// arrives for a line, whether or not a copy is still held —
	// directory sharer lists are imprecise. The core's memory-order
	// buffer subscribes to snoop already-bound loads.
	OnLineLost func(line uint64)
	// LoadReply answers LoadSeq reads: seq identifies the load, data
	// carries the bytes packed little-endian. Set once at wiring time
	// (the core installs its reply handler); scheduling replies through
	// this long-lived func is what keeps the load path closure-free.
	LoadReply func(seq, data uint64)

	cL1Hit, cL1Miss, cL2Hit, cL2Miss   *stats.Counter
	cL1Write, cL2Update, cWriteback    *stats.Counter
	cNack, cRelinquish, cPrefetchDrop  *stats.Counter
	cLoads, cFillMerge, cL1SetOverflow *stats.Counter
	// cWOQSearch is looked up on first use: only TUS machines have
	// woq_searches (tus.New registers it), so others must not gain it.
	cWOQSearch *stats.Counter

	hMSHROcc *stats.Histogram

	tr *trace.Tracer
}

// NewPrivate builds the private hierarchy for core id.
func NewPrivate(id int, cfg *config.Config, q *event.Queue, dir *Directory, st *stats.Set) *Private {
	ref := cfg.Reference
	p := &Private{
		ID:            id,
		cfg:           cfg,
		q:             q,
		dir:           dir,
		st:            st,
		lines:         lmap.NewRef[PLine](ref),
		linePool:      lmap.NewPoolRef[PLine](ref),
		l1:            newSetTable[PLine](cfg.L1D.Sets()),
		l2:            newSetTable[PLine](cfg.L2.Sets()),
		mshrRecs:      lmap.NewRecordsRef[mshrEntry](ref),
		mshrLimit:     cfg.L1D.MSHRs,
		prefMSHRLimit: cfg.L1D.MSHRs / 2,
		wbRecs:        lmap.NewRecordsRef[wbEntry](ref),
	}
	p.resendFn = p.resend
	p.resendWBFn = p.resendWB
	p.grantFn = p.grantNow
	p.cL1Hit = st.Counter("l1d_hits")
	p.cL1Miss = st.Counter("l1d_misses")
	p.cL2Hit = st.Counter("l2_hits")
	p.cL2Miss = st.Counter("l2_misses")
	p.cL1Write = st.Counter("l1d_writes")
	p.cL2Update = st.Counter("l2_updates")
	p.cWriteback = st.Counter("writebacks")
	p.cNack = st.Counter("probe_nacks")
	p.cRelinquish = st.Counter("relinquishes")
	p.cPrefetchDrop = st.Counter("prefetch_drops")
	p.cLoads = st.Counter("l1d_reads")
	p.cFillMerge = st.Counter("tus_fill_merges")
	p.cL1SetOverflow = st.Counter("l1_alloc_fails")
	p.hMSHROcc = st.Histogram("mshr_occupancy")
	return p
}

// SetTracer attaches (or detaches, with nil) the lifecycle tracer.
func (p *Private) SetTracer(t *trace.Tracer) { p.tr = t }

// lineFor returns line's record, registering a fully reset one from
// the slab pool when the line is untracked. The loadWaiters slice keeps
// its grown capacity across reuse.
func (p *Private) lineFor(line uint64) *PLine {
	if pl := p.lines.Get(line); pl != nil {
		return pl
	}
	pl := p.linePool.Get()
	*pl = PLine{Line: line, loadWaiters: pl.loadWaiters[:0]}
	p.lines.Put(line, pl)
	return pl
}

// newMSHR allocates a fully reset miss entry; callers set the request
// flags. loads/writers keep their capacity across reuse.
func (p *Private) newMSHR(line uint64) *mshrEntry {
	id, m := p.mshrRecs.Get()
	*m = mshrEntry{id: id, line: line, born: p.q.Now(), loads: m.loads[:0], writers: m.writers[:0]}
	return m
}

// track links miss m to its line's record pl, observes the allocation
// (occupancy includes the new miss; both MSHR pools count) and sends it.
func (p *Private) track(pl *PLine, m *mshrEntry) {
	pl.mshr = m.id
	p.misses++
	p.permEpoch++
	p.hMSHROcc.Observe(uint64(p.misses))
	p.tr.Emit(trace.MSHRAlloc, int32(p.ID), p.q.Now(), pl.Line, 0, uint64(p.misses))
	p.send(m)
}

// SetHandler installs the TUS handler. Must be called before simulation.
func (p *Private) SetHandler(h UnauthorizedHandler) { p.handler = h }

// SetFaults installs a fault injector (nil disables injection).
func (p *Private) SetFaults(in *faults.Injector) {
	p.faults = in
	if in != nil {
		p.cFaultMSHR = p.st.Counter("fault_mshr_pressure")
	}
}

// Lookup returns the private line state, or nil if untracked.
func (p *Private) Lookup(line uint64) *PLine { return p.lines.Get(line & LineMask) }

// Writable reports whether the hierarchy holds E or M permission.
func (p *Private) Writable(line uint64) bool { return p.lines.Get(line & LineMask).writable() }

// setState is the one writer of a line's MESI state.
func (p *Private) setState(pl *PLine, s MESI) {
	if pl.writable() && s != StateE && s != StateM {
		p.lossEpoch++
	}
	pl.State = s
	p.permEpoch++
}

// PermEpoch identifies everything KeepWritable reads: which lines are
// held in E/M, which name a miss or write-back in flight and, under
// fault injection, the injector's next decision. A caller whose
// permission requests left the epoch where it was may skip repeating
// them until it moves (CSB's waiting group does; the drain lookahead
// needs only LossEpoch, which moves on a subset of these).
func (p *Private) PermEpoch() uint64 { return p.permEpoch }

// LossEpoch advances on what can reopen a line KeepWritable settled
// (writable, joined to a miss, refused): a line leaving E/M, a free
// leaving its line unwritable or answering a refusal for lack of an
// MSHR, a write-back landing, an MSHRFree query under faults.
func (p *Private) LossEpoch() uint64 { return p.lossEpoch }

// MSHRFree reports whether a new demand miss can be tracked.
func (p *Private) MSHRFree() bool {
	if p.faults != nil {
		// Each call consumes an injector decision, so no two are alike.
		p.permEpoch++
		p.lossEpoch++
		if p.faults.MSHRPressure() {
			p.cFaultMSHR.Inc()
			return false
		}
	}
	return p.misses-p.prefMSHRs < p.mshrLimit
}

func (p *Private) touch1(pl *PLine) { p.lruTick++; pl.lru1 = p.lruTick }
func (p *Private) touch2(pl *PLine) { p.lruTick++; pl.lru2 = p.lruTick }

// ---------- Loads ----------

// reply answers one pending load after delay cycles (synchronously when
// delay is 0, matching the fill path's in-event delivery). Replies ride
// the two-arg event form, so a hit schedules nothing on the heap beyond
// the preallocated item slot.
func (p *Private) reply(lw loadWait, src *LineData, delay uint64) {
	packed := extractPacked(src, lw.addr, lw.size)
	if delay == 0 {
		p.LoadReply(lw.seq, packed)
	} else {
		p.q.After2(delay, p.LoadReply, lw.seq, packed)
	}
}

// LoadSeq performs a timed read of size bytes at addr. The read is
// identified by seq and answered through LoadReply when the access
// completes. It returns false when the access cannot start yet (MSHRs
// full, or a write-back in flight); the caller retries next cycle.
func (p *Private) LoadSeq(addr uint64, size uint8, seq uint64) bool {
	return p.load(loadWait{addr: addr, size: size, seq: seq})
}

func (p *Private) load(lw loadWait) bool {
	line := lw.addr & LineMask
	p.cLoads.Inc()
	pl := p.lines.Get(line)

	if pl != nil && pl.InL1 && pl.NotVisible && !pl.Ready {
		// Unauthorized data without permission. When the written-byte
		// mask fully covers the load, forward from the L1D (the paper's
		// Sec. IV option, realized via a WOQ mask search); otherwise
		// the load is aliased to the line and serviced when the write
		// permission arrives.
		want := MaskFor(lw.addr, lw.size)
		if pl.UMask.Covers(want) {
			if p.cWOQSearch == nil {
				p.cWOQSearch = p.st.Counter("woq_searches")
			}
			p.cWOQSearch.Inc()
			p.cL1Hit.Inc()
			p.reply(lw, &pl.L1Data, p.cfg.L1D.Latency)
			return true
		}
		pl.loadWaiters = append(pl.loadWaiters, lw)
		return true
	}
	if pl != nil && pl.InL1 && pl.State != StateI {
		p.cL1Hit.Inc()
		p.touch1(pl)
		p.reply(lw, &pl.L1Data, p.cfg.L1D.Latency)
		return true
	}
	if pl != nil && pl.InL2 && pl.State != StateI {
		// L1 miss, private L2 hit: allocate into L1 and serve.
		p.cL1Miss.Inc()
		p.cL2Hit.Inc()
		if p.allocL1(pl) {
			pl.L1Data = pl.L2Data
			pl.L1Dirty = false
		}
		p.touch2(pl)
		p.reply(lw, &pl.L2Data, p.cfg.L2.Latency)
		return true
	}
	// Full miss.
	if m := p.miss(pl); m != nil {
		m.loads = append(m.loads, lw)
		return true
	}
	if pl != nil && pl.wb != 0 || !p.MSHRFree() {
		return false
	}
	p.cL1Miss.Inc()
	p.cL2Miss.Inc()
	if p.OnDemandMiss != nil {
		p.OnDemandMiss(lw.addr, false)
	}
	m := p.newMSHR(line)
	m.autoRetry = true
	m.loads = append(m.loads, lw)
	p.track(p.lineFor(line), m)
	return true
}

// PrefetchRead starts a read (GetS) prefetch for line: a load miss
// without a consumer. Prefetches are dropped when MSHRs run low and
// never observe the demand-miss stream (no prefetcher feedback loops).
func (p *Private) PrefetchRead(line uint64) bool {
	line &= LineMask
	pl := p.lines.Get(line)
	if pl != nil && ((pl.InL1 || pl.InL2) && pl.State != StateI || pl.NotVisible || pl.mshr != 0 || pl.wb != 0) {
		return false
	}
	if p.prefMSHRs >= p.prefMSHRLimit {
		p.cPrefetchDrop.Inc()
		return false
	}
	p.cL2Miss.Inc()
	m := p.newMSHR(line)
	m.prefetch = true
	m.lowLane = true
	p.prefMSHRs++
	p.track(p.lineFor(line), m)
	return true
}

// ---------- Write-permission requests ----------

// AddRequester registers a write-permission client; done (may be nil)
// hears the outcome of every request it makes or joins.
func (p *Private) AddRequester(name string, done func(line uint64, ok bool)) Requester {
	p.requesters = append(p.requesters, requester{name: name, done: done})
	return Requester(len(p.requesters))
}

// tell delivers one outcome to a requester.
func (p *Private) tell(who Requester, line uint64, ok bool) {
	if done := p.requesters[who-1].done; done != nil {
		done(line, ok)
	}
}

// grantNow is the grantFn event: requester b asked for line a held writable.
func (p *Private) grantNow(line, who uint64) { p.tell(Requester(who), line, true) }

// Awaits reports whether who waits on the write permission of the miss
// in flight for line.
func (p *Private) Awaits(line uint64, who Requester) bool {
	m := p.miss(p.lines.Get(line & LineMask))
	return m != nil && slices.Contains(m.writers, who)
}

// miss returns the miss pl (nil when untracked) names, or nil.
func (p *Private) miss(pl *PLine) *mshrEntry {
	if pl == nil || pl.mshr == 0 {
		return nil
	}
	return p.mshrRecs.ByID(pl.mshr)
}

// RequestWritableAs asks for E/M permission on line on behalf of who.
// With autoRetry the request is retried internally after NACKs until it
// succeeds and who always eventually hears ok=true; without it a NACK
// frees the MSHR and reports ok=false so the caller (TUS) can re-request
// under its lex-order rule. prefetch requests are dropped (who hears
// nothing) when MSHRs run low. Returns false if nothing could start.
func (p *Private) RequestWritableAs(line uint64, prefetch, autoRetry bool, who Requester) bool {
	line &= LineMask
	pl := p.lines.Get(line)
	if pl.writable() {
		if who != 0 {
			p.q.After2(0, p.grantFn, line, uint64(who))
		}
		return true
	}
	return p.requestMiss(line, pl, prefetch, autoRetry, who)
}

// RequestWritable is RequestWritableAs with a one-shot callback (or nil)
// for callers that ask once (tests, the benchmark's probes). Outcomes
// run the oldest callback waiting on their line: a line's outcomes
// arrive in the order its requests were made.
func (p *Private) RequestWritable(line uint64, prefetch, autoRetry bool, cb func(ok bool)) bool {
	if cb == nil {
		return p.RequestWritableAs(line, prefetch, autoRetry, 0)
	}
	if p.cbReq == 0 {
		p.cbReq = p.AddRequester("callback", p.runCallback)
	}
	line &= LineMask
	if !p.RequestWritableAs(line, prefetch, autoRetry, p.cbReq) {
		return false
	}
	p.callbacks = append(p.callbacks, lineCallback{line: line, cb: cb})
	return true
}

// runCallback runs the oldest RequestWritable callback waiting on line.
func (p *Private) runCallback(line uint64, ok bool) {
	i := slices.IndexFunc(p.callbacks, func(c lineCallback) bool { return c.line == line })
	cb := p.callbacks[i].cb
	p.callbacks = slices.Delete(p.callbacks, i, i+1)
	cb(ok)
}

// KeepWritable is the drain-ahead form, RequestWritableAs(line, false,
// false, 0): the drain mechanisms call it for every lookahead line, so
// it decides on one line-table lookup and does nothing for a line
// already held in E/M.
func (p *Private) KeepWritable(line uint64) {
	p.keepCalls++
	line &= LineMask
	if pl := p.lines.Get(line); !pl.writable() {
		p.requestMiss(line, pl, false, false, 0)
	}
}

// requestMiss is RequestWritableAs for a line known not to be writable,
// given its record pl (or nil): join its miss in flight or start one.
func (p *Private) requestMiss(line uint64, pl *PLine, prefetch, autoRetry bool, who Requester) bool {
	if m := p.miss(pl); m != nil {
		if !m.wantM {
			m.upgradeM = true
		}
		if who != 0 {
			// A controlled (TUS) requester simply shares the outcome of
			// whatever request is already in flight.
			m.writers = append(m.writers, who)
		}
		return true
	}
	if pl != nil && pl.wb != 0 {
		return false
	}
	if prefetch && p.prefMSHRs >= p.prefMSHRLimit {
		p.cPrefetchDrop.Inc()
		return false
	}
	if !prefetch && !p.MSHRFree() {
		p.refused = true
		return false
	}
	p.cL2Miss.Inc()
	m := p.newMSHR(line)
	m.wantM = true
	m.autoRetry = autoRetry
	m.prefetch = prefetch
	if who != 0 {
		m.writers = append(m.writers, who)
	}
	if prefetch {
		p.prefMSHRs++
	}
	p.track(p.lineFor(line), m)
	return true
}

func (p *Private) send(m *mshrEntry) { p.dir.request(p.ID, m.line, m.wantM, m.lowLane, m.id, nil) }

// resend is the resendFn event: a NACKed auto-retry miss a asks again.
func (p *Private) resend(id, _ uint64) { p.send(p.mshrRecs.ByID(uint32(id))) }

// response is the directory's answer to miss id, run at its arrival;
// ok=false is a NACK (busy line or TUS delay).
func (p *Private) response(id uint32, ok bool, data *LineData, excl bool) {
	m := p.mshrRecs.ByID(id)
	if ok {
		p.fill(m, data, excl)
		return
	}
	if m.autoRetry {
		p.q.After2(p.cfg.NetLatency, p.resendFn, uint64(id), 0)
		return
	}
	p.freeMSHR(m)
	for _, w := range m.writers {
		p.tell(w, m.line, false)
	}
	// Pending loads must not be dropped: reissue as a fresh
	// auto-retried read request.
	if len(m.loads) > 0 {
		m2 := p.newMSHR(m.line)
		m2.autoRetry = true
		m2.loads, m.loads = m.loads, m2.loads
		p.track(p.lineFor(m2.line), m2)
	}
	p.mshrRecs.Put(m.id)
}

// freeMSHR retires an MSHR, unlinking it from its line's record. The
// struct itself returns to the pool at the caller's terminal point
// (after its loads and writers have been answered).
func (p *Private) freeMSHR(m *mshrEntry) {
	p.permEpoch++
	pl := p.lines.Get(m.line)
	if p.refused || !pl.writable() {
		p.lossEpoch, p.refused = p.lossEpoch+1, false
	}
	if pl != nil && pl.mshr == m.id {
		pl.mshr = 0
		p.misses--
		p.gc(pl)
		now := p.q.Now()
		var lat uint64
		if now >= m.born {
			lat = now - m.born
		}
		p.tr.Emit(trace.MSHRFree, int32(p.ID), now, m.line, 0, lat)
	}
	if m.prefetch {
		p.prefMSHRs--
	}
}

// fill applies a directory response. Runs inside the response event.
func (p *Private) fill(m *mshrEntry, data *LineData, excl bool) {
	line := m.line
	pl := p.lines.Get(line) // m's record, kept by the link until freeMSHR below
	// Allocate in the private L2 (inclusive point).
	if !pl.InL2 {
		p.allocL2(pl)
	}
	pl.L2Data = *data
	pl.L2Dirty = false
	p.touch2(pl)

	switch {
	case m.wantM:
		p.setState(pl, StateM)
	case excl:
		p.setState(pl, StateE)
	default:
		p.setState(pl, StateS)
	}

	if pl.NotVisible && (pl.State == StateM || pl.State == StateE) {
		// TUS: write permission granted — combine memory data with the
		// unauthorized bytes (Fig. 7 (4)).
		if !pl.InL1 {
			// Invariant: not-visible lines are pinned in L1 (pinned
			// covers them), so a writable fill must find the L1 copy.
			panic(faults.Violationf("memsys", p.ID, line, "notvisible-in-l1",
				"not-visible line lost its L1 copy during writable fill"))
		}
		inv := ^pl.UMask
		Merge(&pl.L1Data, data, inv)
		pl.Ready = true
		pl.L1Dirty = true
		p.cFillMerge.Inc()
		if p.handler != nil {
			p.handler.HandleFill(line)
		}
	} else if pl.NotVisible {
		// A read (S) fill reached a line holding unauthorized data —
		// e.g. a stale prefetch. The L2 copy was updated above; the
		// unauthorized L1 stash stays untouched and not ready until a
		// writable fill arrives.
	} else if pl.InL1 || p.allocL1(pl) {
		pl.L1Data = *data
		pl.L1Dirty = false
	}

	p.freeMSHR(m)

	for _, lw := range m.loads {
		if pl.NotVisible && !pl.Ready {
			// The line turned unauthorized while this read was in
			// flight: alias the load until permission arrives, like
			// any other load to an unauthorized line.
			pl.loadWaiters = append(pl.loadWaiters, lw)
			continue
		}
		src := &pl.L2Data
		if pl.InL1 {
			src = &pl.L1Data
		}
		p.reply(lw, src, 0)
	}

	if m.upgradeM && pl.State == StateS {
		// A writable request piggybacked on an in-flight read: the read
		// was granted shared, so chase it with a proper GetM carrying
		// the waiting writers forward.
		m2 := p.newMSHR(line)
		m2.wantM = true
		m2.autoRetry = true
		m2.writers, m.writers = m.writers, m2.writers
		p.track(pl, m2)
	} else {
		for _, w := range m.writers {
			p.tell(w, line, true)
		}
	}
	p.wakeLoadWaiters(pl)
	p.mshrRecs.Put(m.id)
}

func (p *Private) wakeLoadWaiters(pl *PLine) {
	if pl.NotVisible && !pl.Ready {
		return
	}
	ws := pl.loadWaiters
	pl.loadWaiters = nil // not [:0]: replies may re-append while we iterate
	for _, lw := range ws {
		p.reply(lw, &pl.L1Data, p.cfg.L1D.Latency)
	}
}

// ---------- Visible stores (baseline, CSB, SSB, TUS-authorized) ----------

// StoreVisible writes data at addr into a line the hierarchy holds
// writable, making it coherently visible immediately. Returns false if
// the line is not writable or not allocatable in L1.
func (p *Private) StoreVisible(addr uint64, data []byte) bool {
	line := addr & LineMask
	pl := p.lines.Get(line)
	if pl == nil || (pl.State != StateE && pl.State != StateM) {
		return false
	}
	if pl.NotVisible {
		panic(faults.Violationf("memsys", p.ID, line, "visible-store-path",
			"StoreVisible on a not-visible line; use the TUS paths"))
	}
	if !pl.InL1 {
		if !p.allocL1(pl) {
			return false
		}
		pl.L1Data = pl.L2Data
		pl.L1Dirty = false
		p.cL2Hit.Inc()
	}
	off := addr & (LineBytes - 1)
	copy(pl.L1Data[off:], data)
	p.setState(pl, StateM)
	pl.L1Dirty = true
	p.touch1(pl)
	p.cL1Write.Inc()
	if p.OnStoreVisible != nil {
		p.OnStoreVisible(line, MaskFor(addr, uint8(len(data))), &pl.L1Data)
	}
	return true
}

// StoreVisibleLine writes an entire coalesced mask of bytes into a
// writable line (CSB's atomic group writes). Returns false if the line
// is not writable or not allocatable in L1.
func (p *Private) StoreVisibleLine(line uint64, data *LineData, mask Mask) bool {
	line &= LineMask
	pl := p.lines.Get(line)
	if pl == nil || (pl.State != StateE && pl.State != StateM) {
		return false
	}
	if pl.NotVisible {
		panic(faults.Violationf("memsys", p.ID, line, "visible-store-path",
			"StoreVisibleLine on a not-visible line"))
	}
	if !pl.InL1 {
		if !p.allocL1(pl) {
			return false
		}
		pl.L1Data = pl.L2Data
		pl.L1Dirty = false
	}
	Merge(&pl.L1Data, data, mask)
	p.setState(pl, StateM)
	pl.L1Dirty = true
	p.touch1(pl)
	p.cL1Write.Inc()
	p.tr.Emit(trace.StoreVisibleEv, int32(p.ID), p.q.Now(), line, 0, 0)
	if p.OnStoreVisible != nil {
		p.OnStoreVisible(line, mask, &pl.L1Data)
	}
	return true
}

// ---------- TUS store paths ----------

// StoreUnauthorizedLine places a coalesced mask of store bytes in L1
// without permission, marking the line not visible (Fig. 7 left path;
// the WCB flushes a group into the L1D this way). If the line is absent
// it is allocated; if present and visible-but-unwritable (S), the read
// permission is kept but the copy becomes invisible. Returns false when
// no L1 way can host the line.
func (p *Private) StoreUnauthorizedLine(line uint64, data *LineData, mask Mask) bool {
	line &= LineMask
	pl := p.lineFor(line)
	if !pl.InL1 {
		if !p.allocL1(pl) {
			p.cL1SetOverflow.Inc()
			return false
		}
		if pl.InL2 {
			pl.L1Data = pl.L2Data
		} else {
			pl.L1Data = LineData{}
		}
		pl.L1Dirty = false
	}
	Merge(&pl.L1Data, data, mask)
	pl.UMask |= mask
	pl.NotVisible = true
	pl.Ready = false
	p.touch1(pl)
	p.cL1Write.Inc()
	return true
}

// StoreUnauthorizedHitLine coalesces a mask of bytes into an existing
// not-visible line (a store cycle, Sec. III-B). The caller must have
// verified the line is not visible.
func (p *Private) StoreUnauthorizedHitLine(line uint64, data *LineData, mask Mask) {
	line &= LineMask
	pl := p.lines.Get(line)
	if pl == nil || !pl.NotVisible || !pl.InL1 {
		panic(faults.Violationf("memsys", p.ID, line, "unauthorized-resident",
			"StoreUnauthorizedHitLine on a line that is not an unauthorized L1 resident"))
	}
	Merge(&pl.L1Data, data, mask)
	pl.UMask |= mask
	p.touch1(pl)
	p.cL1Write.Inc()
}

// StoreOverVisibleLine implements the TUS "authorized hit on a modified
// line" path (Fig. 7 (3)): the current data is first pushed to the
// private L2 so a valid authorized copy survives, then the new bytes
// are written and the line turns not-visible but ready.
func (p *Private) StoreOverVisibleLine(line uint64, data *LineData, mask Mask) bool {
	line &= LineMask
	pl := p.lines.Get(line)
	if pl == nil || (pl.State != StateE && pl.State != StateM) || pl.NotVisible {
		return false
	}
	if !pl.InL1 {
		if !p.allocL1(pl) {
			return false
		}
		pl.L1Data = pl.L2Data
		pl.L1Dirty = false
	}
	// Push the authorized copy down (energy: an L2 update, Sec. VI-A).
	if !pl.InL2 {
		p.allocL2(pl)
	}
	pl.L2Data = pl.L1Data
	pl.L2Dirty = pl.L2Dirty || pl.L1Dirty
	p.cL2Update.Inc()

	Merge(&pl.L1Data, data, mask)
	pl.UMask = mask
	pl.NotVisible = true
	pl.Ready = true
	p.setState(pl, StateM)
	p.touch1(pl)
	p.cL1Write.Inc()
	return true
}

// MakeVisible flips a ready not-visible line into an ordinary modified
// line, publishing its bytes to the coherent world.
func (p *Private) MakeVisible(line uint64) {
	pl := p.lines.Get(line & LineMask)
	if pl == nil || !pl.NotVisible || !pl.Ready {
		panic(faults.Violationf("memsys", p.ID, line&LineMask, "makevisible-ready",
			"MakeVisible on a line that is not ready"))
	}
	if pl.State != StateM && pl.State != StateE {
		panic(faults.Violationf("memsys", p.ID, line&LineMask, "makevisible-perm",
			"MakeVisible without permission (state %v)", pl.State))
	}
	mask := pl.UMask
	pl.NotVisible = false
	pl.Ready = false
	pl.UMask = 0
	p.setState(pl, StateM)
	pl.L1Dirty = true
	p.tr.Emit(trace.StoreVisibleEv, int32(p.ID), p.q.Now(), pl.Line, 0, 0)
	if p.OnStoreVisible != nil {
		p.OnStoreVisible(pl.Line, mask, &pl.L1Data)
	}
	p.wakeLoadWaiters(pl)
}

// ---------- Capacity management ----------

// L1WaysAvailable reports whether all the given lines could reside in
// L1 simultaneously (the atomic-group associativity restriction,
// Sec. III-B). Resident lines count as satisfied, duplicates twice; up
// to 16 lines that need a way are counted per set without allocating.
// pin is set when the write makes every line not visible (TUS): a
// resident, unpinned line then needs its way too, as the write pins it.
func (p *Private) L1WaysAvailable(lines []uint64, pin bool) bool {
	need := make([]uint64, 0, 16) // the set of each line that needs a way
	for _, ln := range lines {
		if pl := p.lines.Get(ln & LineMask); pl == nil || !pl.InL1 || pin && !pl.pinned() {
			need = append(need, p.l1.of(ln))
		}
	}
	for i, set := range need {
		if slices.Contains(need[:i], set) {
			continue // judged at its first line
		}
		avail := p.cfg.L1D.Ways // free ways plus evictable ones
		for _, v := range p.l1.ways(set) {
			if v.pinned() {
				avail--
			}
		}
		for _, s := range need[i:] {
			if s == set {
				avail--
			}
		}
		if avail < 0 {
			return false
		}
	}
	return true
}

// pinned reports that no cache may evict pl (the L2 is inclusive) and
// gc must keep it: not visible, a miss in flight, or loads waiting.
func (pl *PLine) pinned() bool {
	return pl.NotVisible || pl.mshr != 0 || len(pl.loadWaiters) > 0
}

// writable reports whether pl (nil when untracked) holds E or M.
func (pl *PLine) writable() bool {
	return pl != nil && (pl.State == StateE || pl.State == StateM)
}

// allocL1 places pl into its L1 set, evicting if needed. Returns false
// when every way is pinned (locked or not visible).
func (p *Private) allocL1(pl *PLine) bool {
	set := p.l1.of(pl.Line)
	ways := p.l1.ways(set)
	if len(ways) >= p.cfg.L1D.Ways {
		victim := p.pickL1Victim(ways)
		if victim == nil {
			return false
		}
		p.evictL1(victim)
	}
	p.l1.add(set, pl)
	pl.InL1 = true
	p.touch1(pl)
	return true
}

func (p *Private) pickL1Victim(ways []*PLine) *PLine {
	var victim *PLine
	for _, w := range ways {
		if w.pinned() {
			continue
		}
		if victim == nil || w.lru1 < victim.lru1 {
			victim = w
		}
	}
	return victim
}

// evictL1 removes pl from L1, writing dirty data back into the L2 copy.
func (p *Private) evictL1(pl *PLine) {
	p.evictL1noWB(pl)
	if pl.L1Dirty {
		if !pl.InL2 {
			p.allocL2(pl)
		}
		pl.L2Data = pl.L1Data
		pl.L2Dirty = true
		pl.L1Dirty = false
		p.cL2Update.Inc()
	}
	p.gc(pl)
}

// allocL2 places pl into its L2 set, evicting (and recalling from L1)
// as needed. The L2 has 16 ways; when every way is pinned we allow a
// temporary overflow and count it rather than deadlock the fill path.
func (p *Private) allocL2(pl *PLine) {
	set := p.l2.of(pl.Line)
	ways := p.l2.ways(set)
	if len(ways) >= p.cfg.L2.Ways {
		var victim *PLine
		for _, w := range ways {
			if w.pinned() {
				continue // inclusive: cannot evict below a pinned L1 line
			}
			if victim == nil || w.lru2 < victim.lru2 {
				victim = w
			}
		}
		if victim != nil {
			p.evictL2(victim)
		} else {
			p.st.Counter("l2_set_overflow").Inc()
		}
	}
	p.l2.add(set, pl)
	pl.InL2 = true
	p.touch2(pl)
}

// evictL2 removes pl from the hierarchy entirely (inclusive), issuing a
// writeback when this hierarchy owns the line or holds dirty data.
func (p *Private) evictL2(pl *PLine) {
	if pl.InL1 {
		p.evictL1(pl)
	}
	p.dropL2(pl)
	owned := pl.State == StateM || pl.State == StateE
	dirty := pl.L2Dirty
	if owned || dirty {
		p.writeBack(pl)
	}
	p.setState(pl, StateI)
	pl.L2Dirty = false
	p.gc(pl)
}

func (p *Private) dropL2(pl *PLine) {
	if !pl.InL2 {
		return
	}
	p.l2.remove(p.l2.of(pl.Line), pl)
	pl.InL2 = false
}

// gc forgets a line that holds no state worth tracking, returning the
// struct to the slab pool.
func (p *Private) gc(pl *PLine) {
	if pl.InL1 || pl.InL2 || pl.State != StateI || pl.pinned() || pl.wb != 0 {
		return
	}
	p.lines.Delete(pl.Line)
	p.linePool.Put(pl)
}

// writeBack sends pl's L2 copy to the directory, retrying NACKs from a
// writeback buffer that probes can also service. Until it lands the line
// starts no miss: the directory, still naming this core owner, would
// grant the LLC's stale copy.
func (p *Private) writeBack(pl *PLine) {
	p.cWriteback.Inc()
	id, e := p.wbRecs.Get()
	*e = wbEntry{id: id, line: pl.Line, data: pl.L2Data}
	pl.wb = id
	p.dir.request(p.ID, pl.Line, false, false, id, &e.data)
}

// writeBackDone is the directory's answer to write-back id; a NACK is
// retried (resendWB) until the write-back lands or a probe retires it.
func (p *Private) writeBackDone(id uint32, ok bool) {
	e := p.wbRecs.ByID(id)
	if !ok && !e.retired {
		p.q.After2(p.cfg.NetLatency, p.resendWBFn, uint64(id), 0)
		return
	}
	if pl := p.lines.Get(e.line); pl != nil && pl.wb == id {
		pl.wb = 0
		p.permEpoch++ // the line may start a miss again
		p.lossEpoch++
		p.gc(pl)
	}
	p.wbRecs.Put(id)
}

// resendWB is the resendWBFn event: send write-back a again, unless a
// probe took its data meanwhile.
func (p *Private) resendWB(a, _ uint64) {
	if e := p.wbRecs.ByID(uint32(a)); e.retired {
		p.writeBackDone(e.id, true)
	} else {
		p.dir.request(p.ID, e.line, false, false, e.id, &e.data)
	}
}

// ---------- Probes ----------

// Probe handles an external coherence request delivered by the
// directory. It runs synchronously at probe-arrival time; a copy that
// travels back (dirty data, or a relinquished line's old authorized
// copy) is written to data, and hasData says so.
func (p *Private) Probe(line uint64, kind ProbeKind, data *LineData) (res ProbeResult, hasData bool) {
	line &= LineMask
	p.tr.Emit(trace.ProbeRecv, int32(p.ID), p.q.Now(), line, 0, uint64(kind))
	if kind == ProbeInv && p.OnLineLost != nil {
		p.OnLineLost(line)
	}
	pl := p.lines.Get(line)
	if pl != nil && pl.wb != 0 {
		// The line was being written back; hand the data over directly.
		e := p.wbRecs.ByID(pl.wb)
		e.retired = true
		*data = e.data
		return ProbeAck, true
	}
	if pl == nil || (pl.State == StateI && !pl.NotVisible) {
		return ProbeAck, false
	}

	if pl.NotVisible && (pl.State == StateM || pl.State == StateE) {
		// The probed line holds unauthorized data under our write
		// permission: defer to the authorization unit (Sec. III-C).
		action := ActionDelay
		if p.handler != nil {
			action = p.handler.HandleProbe(line)
		}
		if action == ActionDelay {
			p.cNack.Inc()
			p.tr.Emit(trace.ProbeNackEv, int32(p.ID), p.q.Now(), line, 0, 0)
			return ProbeNack, false
		}
		p.cRelinquish.Inc()
		*data = pl.L2Data
		p.setState(pl, StateI)
		pl.Ready = false
		p.dropL2(pl)
		if p.handler != nil {
			p.handler.HandleRelinquish(line)
		}
		return ProbeStale, true
	}

	if pl.NotVisible {
		// Unauthorized stash without permission; we are at most a
		// sharer in the directory's eyes. Drop the read permission but
		// keep the stash.
		p.setState(pl, StateI)
		p.dropL2(pl)
		return ProbeAck, false
	}

	dirty := pl.L1Dirty || pl.L2Dirty || pl.State == StateM
	if dirty {
		*data = pl.L2Data
		if pl.InL1 && pl.L1Dirty {
			*data = pl.L1Data
		}
	}
	switch kind {
	case ProbeInv:
		p.setState(pl, StateI)
		if pl.InL1 {
			p.evictL1noWB(pl)
		}
		p.dropL2(pl)
		pl.L1Dirty, pl.L2Dirty = false, false
		p.gc(pl)
	case ProbeDowngrade:
		p.setState(pl, StateS)
		if pl.InL1 && pl.L1Dirty {
			pl.L2Data = pl.L1Data
		}
		pl.L1Dirty, pl.L2Dirty = false, false
	}
	return ProbeAck, dirty
}

// evictL1noWB removes the L1 residency without pushing data to L2
// (used on invalidation, where the data already left via the probe).
func (p *Private) evictL1noWB(pl *PLine) {
	p.l1.remove(p.l1.of(pl.Line), pl)
	pl.InL1 = false
}

// ---------- Audit / chaos hooks ----------

// AuditLines visits every tracked line in ascending address order. The
// sorted walk keeps auditor reports deterministic across runs (neither
// map implementation has a meaningful iteration order).
func (p *Private) AuditLines(visit func(pl *PLine)) {
	for _, k := range p.lines.SortedKeys() {
		visit(p.lines.Get(k))
	}
}

// AuditMSHRs visits every in-flight miss in ascending line order.
func (p *Private) AuditMSHRs(visit func(line, born uint64, wantM, prefetch bool)) {
	p.AuditLines(func(pl *PLine) {
		if m := p.miss(pl); m != nil {
			visit(m.line, m.born, m.wantM, m.prefetch)
		}
	})
}

// MSHRWaiters reports who waits on the miss in flight for line: its
// pending loads, and its write requesters by name in arrival order.
func (p *Private) MSHRWaiters(line uint64) (loads int, writers []string) {
	m := p.miss(p.lines.Get(line & LineMask))
	if m == nil {
		return 0, nil
	}
	for _, w := range m.writers {
		writers = append(writers, p.requesters[w-1].name)
	}
	return len(m.loads), writers
}

// WBPending reports whether line sits in the writeback buffer (its
// directory state is transiently out of sync while the WB is in flight).
func (p *Private) WBPending(line uint64) bool {
	pl := p.lines.Get(line & LineMask)
	return pl != nil && pl.wb != 0
}

// MSHRPending reports whether a miss for line is in flight.
func (p *Private) MSHRPending(line uint64) bool { return p.miss(p.lines.Get(line&LineMask)) != nil }

// InFlight reports whether pl names a miss in flight.
func (pl *PLine) InFlight() bool { return pl.mshr != 0 }

// MissLine reports the line of the miss pl names (ok=false: none),
// which must be pl's own.
func (p *Private) MissLine(pl *PLine) (line uint64, ok bool) {
	if m := p.miss(pl); m != nil {
		return m.line, true
	}
	return 0, false
}

// SabotageHideLine deliberately corrupts state for crash-pipeline
// testing: the lowest-addressed unauthorized (not-visible, not-ready)
// L1 resident is silently flipped to visible with its unauthorized mask
// cleared, which the invariant auditor must catch as a WOQ/L1
// disagreement. Returns the corrupted line, or ok=false when no
// candidate exists yet.
func (p *Private) SabotageHideLine() (uint64, bool) {
	for _, k := range p.lines.SortedKeys() {
		if pl := p.lines.Get(k); pl.NotVisible && !pl.Ready && pl.InL1 {
			pl.NotVisible = false
			pl.UMask = 0
			return k, true
		}
	}
	return 0, false
}

// extractPacked packs size bytes at addr into a uint64, little-endian
// (byte i of the line lands in bits 8i..8i+7, matching what copying
// into a [8]byte and decoding with encoding/binary would produce).
func extractPacked(l *LineData, addr uint64, size uint8) uint64 {
	off := addr & (LineBytes - 1)
	var v uint64
	for i := uint64(0); i < uint64(size); i++ {
		v |= uint64(l[off+i]) << (8 * i)
	}
	return v
}
