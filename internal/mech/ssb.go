package mech

import (
	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/event"
	"tusim/internal/stats"
	"tusim/internal/trace"
)

// SSB is the idealized Scalable Store Buffer (Wenisch et al., ISCA'07):
// committed stores move immediately from the SB into a large in-order
// FIFO (the TSOB), so the SB almost never blocks. The TSOB drains
// store-by-store in order, requiring write permission and — because
// SSB does not coalesce — paying a shared-cache write per store. As in
// the paper we idealize invalidation recovery (0-cycle replay) and let
// loads forward from the TSOB for free.
type SSB struct {
	lookahead // over the TSOB; its priv is the core's hierarchy
	core      *cpu.Core
	cfg       *config.Config
	q         *event.Queue

	// tsob is the same program-order ring as the SB, fed with copies of
	// the stores the SB retires.
	tsob *cpu.StoreBuffer

	requested bool
	// llcInflight models the shared-cache write port: SSB performs a
	// write in the shared cache for every store (no coalescing), which
	// bounds its sustained drain throughput. llcDoneFn frees a slot.
	llcInflight int
	llcDoneFn   event.Func2

	cDrained, cLLCWrite, cBlocked *stats.Counter
	cPeak, cSearches              *stats.Counter

	hTSOBOcc *stats.Histogram

	tr *trace.Tracer
}

// ssbLookahead is how many distinct TSOB lines ahead of the drain head
// keep permission requests in flight.
const ssbLookahead = 64

// ssbLLCWritePort bounds concurrent second-level-cache writes (one per
// drained store; SSB does not coalesce, so every store pays one).
const ssbLLCWritePort = 16

// NewSSB builds the idealized SSB with cfg.TSOBEntries slots.
func NewSSB(core *cpu.Core, cfg *config.Config, q *event.Queue, st *stats.Set) *SSB {
	s := &SSB{
		core:      core,
		cfg:       cfg,
		q:         q,
		tsob:      cpu.NewStoreBuffer(cfg.TSOBEntries, cfg.Reference),
		cDrained:  st.Counter("stores_drained"),
		cLLCWrite: st.Counter("ssb_llc_writes"),
		cBlocked:  st.Counter("drain_blocked_cycles"),
		cPeak:     st.Counter("tsob_peak_occupancy"),
		cSearches: st.Counter("tsob_searches"),
		hTSOBOcc:  st.Histogram("tsob_occupancy"),
	}
	s.lookahead = lookahead{ring: s.tsob, priv: core.Priv(), k: ssbLookahead, ref: cfg.Reference}
	s.llcDoneFn = func(_, _ uint64) { s.llcInflight-- }
	return s
}

// SetTracer attaches (or detaches, with nil) the lifecycle tracer.
func (s *SSB) SetTracer(t *trace.Tracer) { s.tr = t }

// Name implements cpu.DrainMechanism.
func (s *SSB) Name() string { return config.SSB.String() }

// Tick moves committed stores into the TSOB (up to commit width per
// cycle, store-wait-free) and drains the TSOB head (one per cycle).
func (s *SSB) Tick() {
	for n := 0; n < s.cfg.CommitWidth; n++ {
		e := s.core.SB.Head()
		if e == nil || !e.Committed || !s.tsob.PushCopy(e) {
			break
		}
		s.tr.Emit(trace.TSOBEnqueue, int32(s.core.ID), s.q.Now(), e.Addr, e.Seq, uint64(s.tsob.Len()))
		s.core.SB.Pop()
	}
	count := uint64(s.tsob.Len())
	if count > s.cPeak.Value() {
		// Track peak occupancy via a counter (monotone).
		s.cPeak.Add(count - s.cPeak.Value())
	}
	s.hTSOBOcc.Observe(count)
	h := s.tsob.Head()
	if h == nil {
		return
	}
	// Drain lookahead: keep write-permission requests in flight for the
	// next few distinct lines so the deep TSOB drains with memory-level
	// parallelism (a store that committed a thousand entries ago has
	// long lost its prefetch-at-commit line from the L1D). Demand-class:
	// the idealized SSB keeps its drain window's RFOs on the fast path.
	s.walk()
	line := h.Line()
	if s.llcInflight >= ssbLLCWritePort {
		// Shared-cache write port saturated: the uncoalesced
		// store-by-store LLC updates throttle the drain.
		s.cBlocked.Inc()
		return
	}
	if s.priv.Writable(line) {
		if s.priv.StoreVisible(h.Addr, h.Data[:h.Size]) {
			// SSB performs the write in the shared cache for every
			// store (no coalescing): occupy an LLC write-port slot and
			// count the energy event.
			s.cLLCWrite.Inc()
			s.llcInflight++
			s.q.After2(s.cfg.L2.Latency, s.llcDoneFn, 0, 0)
			s.tr.Emit(trace.StoreVisibleEv, int32(s.core.ID), s.q.Now(), h.Addr, h.Seq, 0)
			s.tsob.Pop()
			s.requested = false
			s.cDrained.Inc()
			return
		}
	}
	if !s.requested {
		s.requested = s.priv.RequestWritable(line, false, true, nil)
	}
	s.cBlocked.Inc()
}

// Forward searches the TSOB youngest-first (idealized: free and at
// forwarding latency). Every TSOB store is older than any load in
// flight.
func (s *SSB) Forward(addr uint64, size uint8) (cpu.ForwardResult, [8]byte) {
	s.cSearches.Inc()
	return s.tsob.Search(^uint64(0), addr, size)
}

// TSOBInfo is the TSOB's state exported for crash snapshots: under SSB
// the SB is empty by design and the undrained stores wait here.
type TSOBInfo struct {
	Len      int    `json:"len"`
	HeadLine uint64 `json:"head_line"`
	// HeadPending: a permission request for the head's line is in flight.
	HeadPending bool `json:"head_pending"`
}

// AuditTSOB snapshots the TSOB; nil when it is empty.
func (s *SSB) AuditTSOB() *TSOBInfo {
	h := s.tsob.Head()
	if h == nil {
		return nil
	}
	return &TSOBInfo{Len: s.tsob.Len(), HeadLine: h.Line(), HeadPending: s.priv.MSHRPending(h.Line())}
}

// Drained implements cpu.DrainMechanism.
func (s *SSB) Drained() bool { return s.tsob.Empty() }

// FlushDone implements cpu.DrainMechanism.
func (s *SSB) FlushDone() bool { return s.tsob.Empty() }

// Quiescent implements cpu.DrainMechanism: no store can enter the TSOB,
// and its head, if any, waits on the write port or on its request.
func (s *SSB) Quiescent(fence bool) cpu.Idle {
	e, h := s.core.SB.Head(), s.tsob.Head()
	idle := cpu.Idle{Ticks: cpu.Forever, Occ: s.hTSOBOcc, OccLen: uint64(s.tsob.Len())}
	switch {
	case fence && h == nil, e != nil && e.Committed && !s.tsob.Full():
		return cpu.Idle{}
	case h == nil:
		return idle
	case s.still() && (s.llcInflight >= ssbLLCWritePort || s.requested && !s.priv.Writable(h.Line())):
		idle.Blocked = s.cBlocked
		return idle
	}
	return cpu.Idle{}
}
