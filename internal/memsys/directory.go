package memsys

import (
	"sort"

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
	// waiting queues requests that arrived while the line was busy;
	// FIFO service prevents deterministic retry livelocks between
	// contending cores.
	waiting []queuedReq
}

type queuedReq struct {
	src     int
	wantM   bool
	lowLane bool
	cb      func(ok bool, data *LineData, excl bool)
}

// dirQueueCap bounds the per-line request queue; overflow is NACKed.
const dirQueueCap = 24

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
		reqLat:  cfg.L3.Latency / 2,
		netLat:  cfg.NetLatency,
	}
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

// Request is the private hierarchy's entry point for GetS/GetM. The
// callback runs at response-arrival time at the requester; ok=false is
// a NACK (busy line or TUS delay).
func (d *Directory) Request(src int, line uint64, wantM, lowLane bool, cb func(ok bool, data *LineData, excl bool)) {
	line &= LineMask
	d.q.After(d.reqLat+d.faults.ReqExtra(), func() { d.handle(src, line, wantM, lowLane, cb) })
}

func (d *Directory) handle(src int, line uint64, wantM, lowLane bool, cb func(ok bool, data *LineData, excl bool)) {
	if d.faults.SpuriousNack() {
		// A NACK is a legal response to any request (busy line, TUS
		// delay), so requesters must already cope with it at any time.
		d.cFaultNack.Inc()
		d.cNack.Inc()
		d.tr.Emit(trace.DirNack, dirTraceCore, d.q.Now(), line, 0, uint64(src))
		d.q.After(d.reqLat, func() { cb(false, nil, false) })
		return
	}
	d.cAccess.Inc()
	e := d.entry(line)
	d.lruTick++
	e.lru = d.lruTick
	if e.busy {
		if len(e.waiting) < dirQueueCap {
			e.waiting = append(e.waiting, queuedReq{src: src, wantM: wantM, lowLane: lowLane, cb: cb})
		} else {
			d.cNack.Inc()
			d.tr.Emit(trace.DirNack, dirTraceCore, d.q.Now(), line, 0, uint64(src))
			d.q.After(d.reqLat, func() { cb(false, nil, false) })
		}
		return
	}
	if stall := d.faults.BusyStall(); stall > 0 {
		// Hold the busy bit with no transaction in flight for a while,
		// as if a remote response were slow; then restart the request.
		// Concurrent requests queue behind the busy bit as usual.
		d.cFaultStall.Inc()
		e.busy = true
		e.busySince = d.q.Now()
		d.q.After(stall, func() {
			e.busy = false
			d.handle(src, line, wantM, lowLane, cb)
		})
		return
	}
	e.busy = true
	e.busySince = d.q.Now()

	nack := func() {
		e.busy = false
		d.cNack.Inc()
		d.tr.Emit(trace.DirNack, dirTraceCore, d.q.Now(), line, 0, uint64(src))
		d.q.After(d.reqLat, func() { cb(false, nil, false) })
		d.kick(e)
	}
	grant := func() {
		if wantM {
			e.owner = src
			e.sharers = 0
		} else {
			if e.owner == src {
				e.owner = -1
			}
			e.sharers |= 1 << uint(src)
		}
		excl := wantM || (e.owner < 0 && e.sharers == 1<<uint(src))
		if excl && !wantM {
			// Grant E: track as owner so future requests probe us.
			e.owner = src
			e.sharers = 0
		}
		data := e.data
		// The line stays busy until the requester has applied the fill
		// (cb runs synchronously at response arrival); this guarantees
		// probes never race an in-flight fill.
		d.q.After(d.reqLat, func() {
			cb(true, &data, excl)
			e.busy = false
			d.kick(e)
		})
	}

	// Step 2 runs once data and permissions are settled.
	withData := func(next func()) {
		if e.hasData {
			next()
			return
		}
		fill := func() {
			d.mem.ReadLine(line, &e.data)
			e.hasData = true
			next()
		}
		if lowLane {
			d.dram.AccessLow(fill)
		} else {
			d.dram.Access(fill)
		}
	}

	// Collect the probe targets.
	type target struct {
		core int
		kind ProbeKind
	}
	var targets []target
	if e.owner >= 0 && e.owner != src {
		k := ProbeDowngrade
		if wantM {
			k = ProbeInv
		}
		targets = append(targets, target{e.owner, k})
	}
	if wantM {
		for c := range d.privates {
			if c != src && e.owner != c && e.sharers&(1<<uint(c)) != 0 {
				targets = append(targets, target{c, ProbeInv})
			}
		}
	}

	if len(targets) == 0 {
		withData(grant)
		return
	}
	// Probe delivery order is not architecturally specified; a seeded
	// shuffle explores legal orderings the deterministic collector never
	// produces on its own.
	d.faults.ShuffleTargets(len(targets), func(i, j int) {
		targets[i], targets[j] = targets[j], targets[i]
	})

	pending := len(targets)
	nacked := false
	for _, t := range targets {
		t := t
		d.cProbes.Inc()
		d.q.After(d.netLat+d.faults.ProbeExtra(), func() {
			r := d.privates[t.core].Probe(line, t.kind)
			d.q.After(d.netLat, func() {
				switch r.Result {
				case ProbeNack:
					nacked = true
				case ProbeStale:
					// TUS relinquish: the old authorized copy becomes
					// the coherent data and the owner loses the line.
					e.data = *r.Data
					e.hasData = true
					e.dirty = true
					if e.owner == t.core {
						e.owner = -1
					}
				case ProbeAck:
					if r.Data != nil {
						e.data = *r.Data
						e.hasData = true
						e.dirty = true
					}
					if t.kind == ProbeInv {
						e.sharers &^= 1 << uint(t.core)
						if e.owner == t.core {
							e.owner = -1
						}
					} else if e.owner == t.core {
						// Downgrade: old owner stays on as a sharer.
						e.owner = -1
						e.sharers |= 1 << uint(t.core)
					}
				}
				pending--
				if pending == 0 {
					if nacked {
						nack()
						return
					}
					withData(grant)
				}
			})
		})
	}
}

// kick services the next queued request for a line that just unbusied.
// It runs synchronously so a queued request always beats any request
// arriving later in the same cycle (otherwise deterministic retry
// traffic can starve the queue forever).
func (d *Directory) kick(e *dirEntry) {
	if e.busy || len(e.waiting) == 0 {
		return
	}
	next := e.waiting[0]
	e.waiting = e.waiting[1:]
	d.handle(next.src, e.line, next.wantM, next.lowLane, next.cb)
}

// WriteBack handles PutM-style eviction/relinquish traffic. ok=false
// asks the private hierarchy to retry (busy line).
func (d *Directory) WriteBack(src int, line uint64, data *LineData, cb func(ok bool)) {
	line &= LineMask
	d.q.After(d.reqLat+d.faults.ReqExtra(), func() {
		if d.faults.SpuriousNack() {
			d.cFaultNack.Inc()
			d.q.After(d.reqLat, func() { cb(false) })
			return
		}
		d.cAccess.Inc()
		e := d.entry(line)
		if e.busy {
			d.q.After(d.reqLat, func() { cb(false) })
			return
		}
		if e.owner == src {
			e.owner = -1
			e.data = *data
			e.hasData = true
			e.dirty = true
		}
		// A writeback from a non-owner is stale (the probe already
		// collected the data); acknowledge and drop it.
		d.q.After(d.reqLat, func() { cb(true) })
	})
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
	keys := make([]uint64, 0, d.entries.Len())
	d.entries.Range(func(k uint64, _ *dirEntry) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		e := d.entries.Get(k)
		visit(e.line, e.owner, e.sharers, e.busy, e.busySince)
	}
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
