// Package trace is the simulator's structured observability layer: a
// deterministic, ring-buffered recorder of per-store lifecycle events
// (SB enqueue → drain → WCB coalesce / unauthorized L1D write →
// permission arrival → WOQ release → coherent visibility) and
// cache/directory events (MSHR allocation, probes, NACKs, recalls).
//
// Contract (pinned by tests in this package and internal/harness):
//
//   - Zero overhead when off: every Emit* call on a nil or disabled
//     *Tracer is a branch and a return — no allocation, no atomic, no
//     lock. Components hold a plain *Tracer field (nil by default), so
//     the fully-instrumented drain hot path allocates zero bytes when
//     tracing is disabled.
//   - Determinism: events are recorded in event-queue order by the
//     single simulation goroutine; two runs of the same seed produce
//     identical event streams, and a run with tracing enabled is
//     cycle-for-cycle identical to one with tracing disabled (tracing
//     only observes, it never schedules or mutates).
//   - Bounded memory: the ring keeps the most recent Cap events and
//     counts what it dropped; recording never grows the heap after New.
//
// The recorded stream exports as Chrome trace-event JSON (WriteChrome)
// loadable directly in Perfetto / chrome://tracing: lifecycle phases
// become duration events on per-core tracks, one-shot protocol events
// become instants.
package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Kind enumerates the event taxonomy. The numeric values are part of
// the ring's compact encoding only; names (Kind.String) are the stable
// interface.
type Kind uint8

// Store-lifecycle and protocol event kinds.
const (
	// KindNone is the zero Kind; it never appears in a recorded stream.
	KindNone Kind = iota

	// ---- Store lifecycle (per store, then per line) ----

	// SBEnqueue: a store entered the store buffer at dispatch.
	// Arg = SB occupancy after the push.
	SBEnqueue
	// SBCommit: the store's ROB entry retired; the SB entry is now
	// drainable. Arg = 0.
	SBCommit
	// SBDrain: the store left the SB head into the drain mechanism.
	// Arg = cycles since SBCommit (drain latency).
	SBDrain
	// WCBCoalesce: the store's bytes entered a write-combining buffer
	// (TUS/CSB coalescing path). Arg = 0.
	WCBCoalesce
	// TSOBEnqueue: the store entered SSB's TSOB FIFO. Arg = TSOB
	// occupancy after the push.
	TSOBEnqueue
	// UnauthWrite: a coalesced group line was written into the L1D
	// without permission (TUS temporarily-unauthorized store).
	// Arg = WOQ atomic-group id.
	UnauthWrite
	// AuthWrite: a group line hit a line already held E/M and was
	// written ready (TUS authorized hit). Arg = WOQ group id.
	AuthWrite
	// PermRequest: a write-permission request was issued for a WOQ
	// line. Arg = 1 when the line is lex-gated (Sec. III-C re-request).
	PermRequest
	// PermGrant: write permission (and memory data) arrived and was
	// merged under the unauthorized mask. Arg = 0.
	PermGrant
	// PermRelinquish: the authorization unit surrendered the line's
	// permission to a lex-order conflict. Arg = 0.
	PermRelinquish
	// WOQRelease: the line's atomic group reached the WOQ head ready
	// and the line became coherently visible. Arg = unauthorized
	// residency in cycles (admission → release).
	WOQRelease
	// StoreVisibleEv: store bytes became coherently visible through a
	// direct visible write (baseline/SSB per-store, CSB group write).
	// Arg = 0.
	StoreVisibleEv

	// ---- Cache / directory ----

	// MSHRAlloc: a miss allocated an MSHR. Arg = MSHR pool occupancy
	// after the allocation (prefetch pool included).
	MSHRAlloc
	// MSHRFree: the miss completed (fill applied) or was abandoned.
	// Arg = cycles since MSHRAlloc (miss latency).
	MSHRFree
	// ProbeRecv: an external probe arrived at a private hierarchy.
	// Arg = 0 for an invalidation, 1 for a downgrade.
	ProbeRecv
	// ProbeNackEv: the probed core NACKed (TUS lex delay or busy).
	// Arg = 0.
	ProbeNackEv
	// DirNack: the directory NACKed a request (busy line, queue
	// overflow, or injected fault). Arg = 0.
	DirNack
	// DirRecall: the directory could not evict any way of a full set
	// (recall skipped; set temporarily overflows). Arg = 0.
	DirRecall

	kindCount // sentinel
)

var kindNames = [kindCount]string{
	KindNone:       "none",
	SBEnqueue:      "sb_enqueue",
	SBCommit:       "sb_commit",
	SBDrain:        "sb_drain",
	WCBCoalesce:    "wcb_coalesce",
	TSOBEnqueue:    "tsob_enqueue",
	UnauthWrite:    "tus_unauth_write",
	AuthWrite:      "tus_auth_write",
	PermRequest:    "perm_request",
	PermGrant:      "perm_grant",
	PermRelinquish: "perm_relinquish",
	WOQRelease:     "woq_release",
	StoreVisibleEv: "store_visible",
	MSHRAlloc:      "mshr_alloc",
	MSHRFree:       "mshr_free",
	ProbeRecv:      "probe",
	ProbeNackEv:    "probe_nack",
	DirNack:        "dir_nack",
	DirRecall:      "dir_recall",
}

// String returns the event kind's stable name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one fixed-size ring record. Addr carries the store's byte
// address for SB-granular events and the line address for line-granular
// ones; Seq is the per-core store sequence number where known (0 for
// line-granular protocol events); Arg is kind-specific (see Kind docs).
type Event struct {
	Cycle uint64
	Addr  uint64
	Seq   uint64
	Arg   uint64
	Core  int32
	Kind  Kind
}

// Tracer records events into a fixed-capacity ring. A tracer is on
// from New until it is dropped; the nil pointer is the tracer that is
// off. Build one only with New (the zero value has no ring). A Tracer
// is not safe for concurrent use; attach one tracer per simulated
// system (each system runs on one goroutine).
type Tracer struct {
	ring    []Event
	head    int // index of the oldest event when full
	count   int
	dropped uint64
}

// DefaultCap is the ring capacity New uses when given n <= 0.
const DefaultCap = 1 << 18

// New returns a tracer with capacity for n events (DefaultCap when
// n <= 0). All memory is allocated here; recording never grows it.
func New(n int) *Tracer {
	if n <= 0 {
		n = DefaultCap
	}
	return &Tracer{ring: make([]Event, n)}
}

// Cap returns the ring capacity. Safe on nil (0).
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Len returns the number of retained events. Safe on nil (0).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Dropped returns how many events the ring overwrote. Safe on nil (0).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Emit records one event. On a nil tracer it is a branch and a return:
// the drain hot path calls it unconditionally and pays nothing when
// tracing is off (pinned by the AllocsPerRun test).
func (t *Tracer) Emit(k Kind, core int32, cycle, addr, seq, arg uint64) {
	if t == nil {
		return
	}
	var slot *Event
	if t.count < len(t.ring) {
		slot = &t.ring[(t.head+t.count)%len(t.ring)]
		t.count++
	} else {
		slot = &t.ring[t.head]
		t.head = (t.head + 1) % len(t.ring)
		t.dropped++
	}
	*slot = Event{Cycle: cycle, Addr: addr, Seq: seq, Arg: arg, Core: core, Kind: k}
}

// Events returns the retained events oldest-first (a copy; the ring
// keeps recording). Safe on nil (empty).
func (t *Tracer) Events() []Event {
	if t == nil || t.count == 0 {
		return nil
	}
	out := make([]Event, t.count)
	for i := 0; i < t.count; i++ {
		out[i] = t.ring[(t.head+i)%len(t.ring)]
	}
	return out
}

// Reset drops all retained events, keeping the ring memory.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.head, t.count, t.dropped = 0, 0, 0
}

// ---------- Chrome trace-event export ----------

// spanDef maps a begin kind and its possible end kinds onto a named
// track. Spans are keyed per core by Seq (store-granular) or line
// address.
type spanDef struct {
	begin  Kind
	ends   []Kind
	track  string
	name   string
	byLine bool
}

// spanDefs is the lifecycle-span pairing table. Order fixes export
// order for deterministic output. WCB residency ends at admission —
// which is UnauthWrite/AuthWrite under TUS but a direct visible group
// write under CSB — hence the multi-end definition.
var spanDefs = []spanDef{
	{SBEnqueue, []Kind{SBDrain}, "SB", "sb_resident", false},
	{TSOBEnqueue, []Kind{StoreVisibleEv}, "TSOB", "tsob_resident", false},
	{WCBCoalesce, []Kind{UnauthWrite, AuthWrite, StoreVisibleEv}, "WCB", "wcb_resident", true},
	{UnauthWrite, []Kind{WOQRelease}, "WOQ", "unauthorized", true},
	{AuthWrite, []Kind{WOQRelease}, "WOQ", "authorized", true},
	{MSHRAlloc, []Kind{MSHRFree}, "MSHR", "miss", true},
}

// instantKinds are exported as Chrome instant events on a per-core
// "protocol" track.
var instantKinds = map[Kind]bool{
	SBCommit:       true,
	PermRequest:    true,
	PermGrant:      true,
	PermRelinquish: true,
	StoreVisibleEv: true,
	ProbeRecv:      true,
	ProbeNackEv:    true,
	DirNack:        true,
	DirRecall:      true,
	WCBCoalesce:    true,
	WOQRelease:     true,
}

type openSpan struct {
	start uint64
	arg   uint64
}

// WriteChrome exports the retained events as Chrome trace-event JSON
// (the object form: {"traceEvents": [...]}) loadable in Perfetto and
// chrome://tracing. Timestamps are cycles reported as microseconds
// (displayTimeUnit "ns" keeps Perfetto from rescaling). Lifecycle
// phases export as complete ("X") duration events on per-core tracks;
// protocol one-shots export as instants ("i"). Spans still open at the
// end of the stream are closed at the last recorded cycle and tagged
// "open": true.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	events := t.Events()
	var last uint64
	for _, e := range events {
		if e.Cycle > last {
			last = e.Cycle
		}
	}

	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"generator\":\"tusim\",\"events\":%d,\"dropped\":%d},\"traceEvents\":[",
		len(events), t.Dropped())
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Process metadata: one pid per core (pid -1 = directory/LLC).
	pids := map[int32]bool{}
	for _, e := range events {
		if !pids[e.Core] {
			pids[e.Core] = true
			name := fmt.Sprintf("core %d", e.Core)
			if e.Core < 0 {
				name = "directory"
			}
			emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, e.Core, name)
		}
	}

	// Spans: a single ordered pass per definition keeps output
	// deterministic (map iteration never decides order).
	type spanKey struct {
		core int32
		id   uint64
	}
	for _, def := range spanDefs {
		open := map[spanKey]openSpan{}
		isEnd := func(k Kind) bool {
			for _, e := range def.ends {
				if k == e {
					return true
				}
			}
			return false
		}
		for _, e := range events {
			key := spanKey{e.Core, e.Seq}
			if def.byLine {
				key.id = e.Addr &^ 63
			}
			switch {
			case e.Kind == def.begin:
				if _, dup := open[key]; !dup {
					open[key] = openSpan{start: e.Cycle, arg: e.Arg}
				}
			case isEnd(e.Kind):
				s, ok := open[key]
				if !ok {
					continue // begin fell off the ring
				}
				delete(open, key)
				emit(`{"ph":"X","name":%q,"cat":"lifecycle","pid":%d,"tid":%q,"ts":%d,"dur":%d,"args":{"addr":"%#x","seq":%d,"arg":%d}}`,
					def.name, e.Core, def.track, s.start, e.Cycle-s.start, key.id, e.Seq, e.Arg)
			}
		}
		// Close leftovers at the final cycle, in recording order: rescan
		// the stream and emit each still-open key at its begin event.
		for _, e := range events {
			if e.Kind != def.begin {
				continue
			}
			key := spanKey{e.Core, e.Seq}
			if def.byLine {
				key.id = e.Addr &^ 63
			}
			s, ok := open[key]
			if !ok || s.start != e.Cycle {
				continue
			}
			delete(open, key)
			emit(`{"ph":"X","name":%q,"cat":"lifecycle","pid":%d,"tid":%q,"ts":%d,"dur":%d,"args":{"addr":"%#x","open":true}}`,
				def.name, e.Core, def.track, s.start, last-s.start, key.id)
		}
	}

	// Instants.
	for _, e := range events {
		if !instantKinds[e.Kind] {
			continue
		}
		emit(`{"ph":"i","s":"t","name":%q,"cat":"protocol","pid":%d,"tid":"protocol","ts":%d,"args":{"addr":"%#x","seq":%d,"arg":%d}}`,
			e.Kind, e.Core, e.Cycle, e.Addr, e.Seq, e.Arg)
	}

	bw.WriteString("]}\n")
	return bw.Flush()
}
