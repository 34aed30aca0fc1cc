package memsys

import (
	"cmp"
	"fmt"
	"slices"

	"tusim/internal/config"
	"tusim/internal/event"
	"tusim/internal/faults"
	"tusim/internal/lmap"
	"tusim/internal/stats"
	"tusim/internal/trace"
)

// Directory is the shared LLC with an embedded full-map directory. It
// serializes coherence transactions per line with a busy bit and NACKs
// concurrent requests, which is also how TUS's delay decision travels
// back to a requester (Sec. III-C).
type Directory struct {
	cfg  *config.Config
	q    *event.Queue
	mem  *Memory
	dram *DRAM
	st   *stats.Set

	privates []*Private

	entries *lmap.Map[dirEntry]
	pool    *lmap.Pool[dirEntry]
	sets    setTable[dirEntry]

	txns   *lmap.Records[dirTxn] // the transactions in flight
	stepFn event.Func2           // their one event handler (step)

	reqLat uint64 // one-way private-L2 <-> LLC latency
	netLat uint64 // one-way probe latency

	lruTick uint64

	faults *faults.Injector
	// Fault counters exist only when an injector is installed, keeping
	// fault-free stat sets byte-identical to pre-chaos builds.
	cFaultNack, cFaultStall *stats.Counter

	cAccess, cNack, cProbes, cRecallFail *stats.Counter
	cEvict, cOverflow                    *stats.Counter

	tr *trace.Tracer
}

// dirTraceCore is the tracer pid for directory-originated events.
const dirTraceCore = -1

// SetTracer attaches (or detaches, with nil) the lifecycle tracer.
func (d *Directory) SetTracer(t *trace.Tracer) { d.tr = t }

type dirEntry struct {
	line      uint64
	data      LineData
	hasData   bool
	dirty     bool // newer than memory
	owner     int  // -1 when unowned
	sharers   uint64
	busy      bool
	busySince uint64
	lru       uint64
	// waiting queues the transactions (record ids) that arrived while
	// the line was busy; FIFO service prevents deterministic retry
	// livelocks between contending cores.
	waiting []uint32
}

// dirQueueCap bounds the per-line request queue; overflow is NACKed.
const dirQueueCap = 24

// dirTxn is one coherence transaction (a GetS/GetM or a write-back)
// from the moment the private side sends it until the requester has its
// answer. Its events name it by record id; its stage says what the next
// one does (step).
type dirTxn struct {
	id, req uint32 // req is the requester's record at src: its MSHR or write-back entry
	src     int    // the requesting core
	stage   txnStage
	line    uint64
	e       *dirEntry // the line's entry while this holds it busy
	probes  []dirProbe
	pending int      // probes not yet answered
	data    LineData // the granted copy, or the written-back one

	wantM, lowLane, writeBack bool
	nacked, excl              bool // a probe was NACKed (TUS delay); an E/M grant
}

// dirProbe is one probe of a transaction's fan-out and its answer.
type dirProbe struct {
	core          int
	kind          ProbeKind
	sent, hasData bool
	result        ProbeResult
	data          LineData
}

// txnStage is where a transaction is (see String).
type txnStage uint8

const (
	txnFree txnStage = iota
	txnSent
	txnQueued
	txnStalled
	txnProbing
	txnDRAM
	txnGrant
	txnNack
)

func (s txnStage) String() string {
	return [...]string{"free", "sent", "queued", "injected stall", "probing", "waiting on DRAM", "granting", "nacking"}[s]
}

// NewDirectory builds the LLC+directory.
func NewDirectory(cfg *config.Config, q *event.Queue, mem *Memory, dram *DRAM, st *stats.Set) *Directory {
	ref := cfg.Reference
	d := &Directory{
		cfg:     cfg,
		q:       q,
		mem:     mem,
		dram:    dram,
		st:      st,
		entries: lmap.NewRef[dirEntry](ref),
		pool:    lmap.NewPoolRef[dirEntry](ref),
		sets:    newSetTable[dirEntry](cfg.L3.Sets()),
		txns:    lmap.NewRecordsRef[dirTxn](ref),
		reqLat:  cfg.L3.Latency / 2,
		netLat:  cfg.NetLatency,
	}
	d.stepFn = d.step
	dram.done = d.dramDone
	d.cAccess = st.Counter("llc_accesses")
	d.cNack = st.Counter("llc_nacks")
	d.cProbes = st.Counter("llc_probes")
	d.cEvict = st.Counter("llc_evictions")
	d.cOverflow = st.Counter("llc_set_overflow")
	d.cRecallFail = st.Counter("llc_recall_skips")
	return d
}

// Attach registers the private hierarchies (called once at wiring time).
func (d *Directory) Attach(ps []*Private) { d.privates = ps }

// SetFaults installs a fault injector (nil disables injection).
func (d *Directory) SetFaults(in *faults.Injector) {
	d.faults = in
	if in != nil {
		d.cFaultNack = d.st.Counter("fault_nacks")
		d.cFaultStall = d.st.Counter("fault_stalls")
	}
}

// entry returns (allocating if needed) the directory entry for line.
// Allocation may evict an un-cached-above victim; if every way is
// pinned the set temporarily overflows (counted, never fatal).
func (d *Directory) entry(line uint64) *dirEntry {
	if e := d.entries.Get(line); e != nil {
		return e
	}
	s := d.sets.of(line)
	ways := d.sets.ways(s)
	if len(ways) >= d.cfg.L3.Ways {
		var victim *dirEntry
		for _, w := range ways {
			if w.busy || w.owner >= 0 || w.sharers != 0 {
				continue
			}
			if victim == nil || w.lru < victim.lru {
				victim = w
			}
		}
		if victim != nil {
			d.cEvict.Inc()
			if victim.dirty && victim.hasData {
				d.mem.WriteLine(victim.line, &victim.data)
				d.dram.Accesses++
			}
			d.entries.Delete(victim.line)
			d.sets.remove(s, victim)
			d.pool.Put(victim)
		} else {
			d.cOverflow.Inc()
			d.cRecallFail.Inc()
			d.tr.Emit(trace.DirRecall, dirTraceCore, d.q.Now(), line, 0, 0)
		}
	}
	e := d.pool.Get()
	*e = dirEntry{line: line, owner: -1, waiting: e.waiting[:0]}
	d.entries.Put(line, e)
	d.sets.add(s, e)
	d.lruTick++
	e.lru = d.lruTick
	return e
}

// request sends src's GetS/GetM for its miss req or, given data, the
// write-back req (PutM-style eviction/relinquish traffic). The answer
// reaches Private.response or Private.writeBackDone at src; a NACK (busy
// line or TUS delay) answers ok=false.
func (d *Directory) request(src int, line uint64, wantM, lowLane bool, req uint32, data *LineData) {
	id, t := d.txns.Get()
	*t = dirTxn{id: id, stage: txnSent, src: src, req: req, line: line & LineMask,
		wantM: wantM, lowLane: lowLane, writeBack: data != nil, probes: t.probes[:0]}
	if data != nil {
		t.data = *data
	}
	d.q.After2(d.reqLat+d.faults.ReqExtra(), d.stepFn, uint64(id), 0)
}

// step is every transaction event: a is the record id, b a probe index.
func (d *Directory) step(a, b uint64) {
	t := d.txns.ByID(uint32(a))
	switch t.stage {
	case txnSent:
		if t.writeBack {
			d.absorb(t)
		} else {
			d.handle(t)
		}
	case txnStalled:
		t.e.busy = false
		t.e = nil
		d.handle(t)
	case txnProbing:
		d.probe(t, int(b))
	case txnGrant, txnNack:
		d.respond(t)
	default:
		panic(faults.Violationf("memsys", t.src, t.line, "txn-stage", "event for a transaction %s", t.stage))
	}
}

func (d *Directory) handle(t *dirTxn) {
	if d.faults.SpuriousNack() {
		// A NACK is a legal response to any request (busy line, TUS
		// delay), so requesters must already cope with it at any time.
		d.cFaultNack.Inc()
		d.refuse(t)
		return
	}
	d.cAccess.Inc()
	e := d.entry(t.line)
	d.lruTick++
	e.lru = d.lruTick
	if e.busy {
		if len(e.waiting) < dirQueueCap {
			t.stage = txnQueued
			e.waiting = append(e.waiting, t.id)
		} else {
			d.refuse(t)
		}
		return
	}
	e.busy = true
	e.busySince = d.q.Now()
	t.e = e
	if stall := d.faults.BusyStall(); stall > 0 {
		// Hold the busy bit with no transaction in flight for a while,
		// as if a remote response were slow; then restart the request.
		// Concurrent requests queue behind the busy bit as usual.
		d.cFaultStall.Inc()
		t.stage = txnStalled
		d.q.After2(stall, d.stepFn, uint64(t.id), 0)
		return
	}

	// Collect the probe targets.
	if e.owner >= 0 && e.owner != t.src {
		k := ProbeDowngrade
		if t.wantM {
			k = ProbeInv
		}
		t.probes = append(t.probes, dirProbe{core: e.owner, kind: k})
	}
	if t.wantM {
		for c := range d.privates {
			if c != t.src && e.owner != c && e.sharers&(1<<uint(c)) != 0 {
				t.probes = append(t.probes, dirProbe{core: c, kind: ProbeInv})
			}
		}
	}
	if len(t.probes) == 0 {
		d.withData(t)
		return
	}
	// Probe delivery order is not architecturally specified; a seeded
	// shuffle explores legal orderings the deterministic collector never
	// produces on its own.
	d.faults.ShuffleTargets(len(t.probes), func(i, j int) {
		t.probes[i], t.probes[j] = t.probes[j], t.probes[i]
	})
	t.stage = txnProbing
	t.pending = len(t.probes)
	for i := range t.probes {
		d.cProbes.Inc()
		d.q.After2(d.netLat+d.faults.ProbeExtra(), d.stepFn, uint64(t.id), uint64(i))
	}
}

// probe delivers probe i to its core or, once sent, applies the answer
// that came back; the last answer settles the transaction.
func (d *Directory) probe(t *dirTxn, i int) {
	pr := &t.probes[i]
	if !pr.sent {
		pr.sent = true
		pr.result, pr.hasData = d.privates[pr.core].Probe(t.line, pr.kind, &pr.data)
		d.q.After2(d.netLat, d.stepFn, uint64(t.id), uint64(i))
		return
	}
	e := t.e
	if pr.hasData {
		// The dirty copy, or a TUS relinquish's old authorized one,
		// becomes the coherent data.
		e.data, e.hasData, e.dirty = pr.data, true, true
	}
	switch {
	case pr.result == ProbeNack:
		t.nacked = true
	case pr.result == ProbeAck && pr.kind == ProbeInv:
		e.sharers &^= 1 << uint(pr.core)
		fallthrough
	case pr.result == ProbeStale:
		if e.owner == pr.core {
			e.owner = -1
		}
	case e.owner == pr.core:
		// Downgrade: old owner stays on as a sharer.
		e.owner = -1
		e.sharers |= 1 << uint(pr.core)
	}
	t.pending--
	if t.pending > 0 {
		return
	}
	if t.nacked {
		e.busy = false
		t.e = nil
		d.refuse(t)
		d.kick(e)
		return
	}
	d.withData(t)
}

// withData grants t once the line's data is at the LLC, reading memory
// first when it is not.
func (d *Directory) withData(t *dirTxn) {
	if t.e.hasData {
		d.grant(t)
		return
	}
	t.stage = txnDRAM
	d.dram.access(uint64(t.id), t.lowLane)
}

// dramDone is the DRAM's answer to transaction id.
func (d *Directory) dramDone(id uint64) {
	t := d.txns.ByID(uint32(id))
	d.mem.ReadLine(t.line, &t.e.data)
	t.e.hasData = true
	d.grant(t)
}

func (d *Directory) grant(t *dirTxn) {
	e, bit := t.e, uint64(1)<<uint(t.src)
	if !t.wantM {
		if e.owner == t.src {
			e.owner = -1
		}
		e.sharers |= bit
	}
	t.excl = t.wantM || (e.owner < 0 && e.sharers == bit)
	if t.excl {
		// Grant M or E: track as owner so future requests probe us.
		e.owner, e.sharers = t.src, 0
	}
	// The line stays busy until the requester has applied the fill
	// (respond runs it synchronously at response arrival); this
	// guarantees probes never race an in-flight fill.
	t.data = e.data
	d.answer(t, txnGrant)
}

// refuse NACKs t (spurious, queue overflow, or a probe's TUS delay).
func (d *Directory) refuse(t *dirTxn) {
	d.cNack.Inc()
	d.tr.Emit(trace.DirNack, dirTraceCore, d.q.Now(), t.line, 0, uint64(t.src))
	d.answer(t, txnNack)
}

// answer sends t's answer back to the requester.
func (d *Directory) answer(t *dirTxn, stage txnStage) {
	t.stage = stage
	d.q.After2(d.reqLat, d.stepFn, uint64(t.id), 0)
}

// respond delivers t's answer at the requester and retires the record;
// a grant releases the line only now.
func (d *Directory) respond(t *dirTxn) {
	p, ok := d.privates[t.src], t.stage == txnGrant
	if t.writeBack {
		p.writeBackDone(t.req, ok)
	} else {
		p.response(t.req, ok, &t.data, t.excl)
	}
	if e := t.e; e != nil {
		e.busy = false
		d.kick(e)
	}
	t.stage, t.e = txnFree, nil
	d.txns.Put(t.id)
}

// kick services the next queued request for a line that just unbusied.
// It runs synchronously so a queued request always beats any request
// arriving later in the same cycle (otherwise deterministic retry
// traffic can starve the queue forever).
func (d *Directory) kick(e *dirEntry) {
	if e.busy || len(e.waiting) == 0 {
		return
	}
	id := e.waiting[0]
	e.waiting = slices.Delete(e.waiting, 0, 1)
	d.handle(d.txns.ByID(id))
}

// absorb is a write-back's arrival at the directory.
func (d *Directory) absorb(t *dirTxn) {
	if d.faults.SpuriousNack() {
		d.cFaultNack.Inc()
		d.answer(t, txnNack)
		return
	}
	d.cAccess.Inc()
	e := d.entry(t.line)
	if e.busy {
		d.answer(t, txnNack)
		return
	}
	if e.owner == t.src {
		e.owner = -1
		e.data = t.data
		e.hasData = true
		e.dirty = true
	}
	// A writeback from a non-owner is stale (the probe already
	// collected the data); acknowledge and drop it.
	d.answer(t, txnGrant)
}

// LLCData returns the LLC's copy of a line if present with valid data
// (tests and coherent-view reads).
func (d *Directory) LLCData(line uint64) *LineData {
	if e := d.entries.Get(line & LineMask); e != nil && e.hasData {
		return &e.data
	}
	return nil
}

// ---------- Audit / chaos hooks ----------

// AuditEntries visits every directory entry in ascending line order
// (sorted for deterministic auditor reports).
func (d *Directory) AuditEntries(visit func(line uint64, owner int, sharers uint64, busy bool, busySince uint64)) {
	for _, k := range d.entries.SortedKeys() {
		e := d.entries.Get(k)
		visit(e.line, e.owner, e.sharers, e.busy, e.busySince)
	}
}

// TxnInfo is a directory transaction in flight, as crash reports list it.
type TxnInfo struct {
	Line      uint64 `json:"line"`
	Core      int    `json:"core"` // the requester
	WantM     bool   `json:"want_m"`
	WriteBack bool   `json:"write_back,omitempty"`
	Stage     string `json:"stage"`
	Queued    []int  `json:"queued,omitempty"` // cores queued behind it on the busy line
}

// AuditTxns lists the transactions in flight in line order. A request
// queued behind a busy line is listed under the one holding the line.
func (d *Directory) AuditTxns() []TxnInfo {
	var out []TxnInfo
	d.txns.Range(func(_ uint32, t *dirTxn) {
		if t.stage == txnFree || t.stage == txnQueued {
			return
		}
		info := TxnInfo{Line: t.line, Core: t.src, WantM: t.wantM, WriteBack: t.writeBack, Stage: t.stage.String()}
		if t.stage == txnProbing {
			info.Stage = fmt.Sprintf("probing, %d of %d answered", len(t.probes)-t.pending, len(t.probes))
		}
		if t.e != nil {
			for _, id := range t.e.waiting {
				info.Queued = append(info.Queued, d.txns.ByID(id).src)
			}
		}
		out = append(out, info)
	})
	slices.SortStableFunc(out, func(a, b TxnInfo) int { return cmp.Compare(a.Line, b.Line) })
	return out
}

// EntryInfo reports a line's directory bookkeeping (auditor use).
func (d *Directory) EntryInfo(line uint64) (owner int, sharers uint64, busy bool, ok bool) {
	e := d.entries.Get(line & LineMask)
	if e == nil {
		return -1, 0, false, false
	}
	return e.owner, e.sharers, e.busy, true
}

// SabotageDropOwner deliberately forgets a line's owner (crash-pipeline
// testing): the private hierarchy still holds E/M but the directory now
// believes nobody does, which the single-writer audit must flag. Busy
// lines are skipped (their owner field is mid-transaction by design).
func (d *Directory) SabotageDropOwner(line uint64) bool {
	e := d.entries.Get(line & LineMask)
	if e == nil || e.busy || e.owner < 0 {
		return false
	}
	e.owner = -1
	return true
}
