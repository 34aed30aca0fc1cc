// Package mech implements the store-handling policies the paper
// compares TUS against: the baseline in-order drain (with
// prefetch-at-commit), the idealized Scalable Store Buffer (SSB), and
// the Coalescing Store Buffer (CSB). SPB is the baseline plus the
// page-burst prefetcher from internal/prefetch, wired by the system.
package mech

import (
	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/memsys"
	"tusim/internal/stats"
)

// Base drains committed stores from the SB head in order; a store that
// lacks write permission blocks the drain until its line arrives
// (prefetch-at-commit usually hides this, except on LLC misses and
// long bursts — the paper's motivating pathologies).
type Base struct {
	lookahead // over the SB; its priv is the core's hierarchy
	core      *cpu.Core
	requested bool // demand GetM issued for the current head

	cBlocked, cDrained *stats.Counter
}

// NewBase builds the baseline drain policy.
func NewBase(core *cpu.Core, cfg *config.Config, st *stats.Set) *Base {
	return &Base{
		lookahead: lookahead{ring: core.SB, priv: core.Priv(), k: drainLookahead, ref: cfg.Reference},
		core:      core,
		cBlocked:  st.Counter("drain_blocked_cycles"),
		cDrained:  st.Counter("stores_drained"),
	}
}

// Name implements cpu.DrainMechanism.
func (b *Base) Name() string { return config.Baseline.String() }

// drainLookahead is how many distinct committed lines ahead of the SB
// head keep RFOs in flight (real store buffers sustain several
// outstanding store misses; prefetch-at-commit covers most of this,
// but its requests are dropped under MSHR pressure). CSB's window too.
const drainLookahead = 16

// lookahead is the drain-ahead RFO walk every drain shares: keep
// write-permission requests in flight for the next k distinct committed
// lines of a store ring. A KeepWritable call settles its line until the
// private's LossEpoch moves, so a walk asks only the runs past the ring's
// watermark (all when the epoch moved), and none while the ring's Gen
// and the epoch are what the last walk started from (the zero key is an
// empty ring's). The reference machine always walks the whole window.
type lookahead struct {
	ring       *cpu.StoreBuffer
	priv       *memsys.Private
	k          int
	ref        bool
	gen, epoch uint64
}

// still reports that walk would skip: its key has not moved.
func (l *lookahead) still() bool {
	return !l.ref && l.gen == l.ring.Gen() && l.epoch == l.priv.LossEpoch()
}

func (l *lookahead) walk() {
	if !l.still() {
		e := l.priv.LossEpoch()
		l.ring.LookaheadLines(l.k, e != l.epoch, l.priv.KeepWritable)
		l.gen, l.epoch = l.ring.Gen(), e
	}
}

// Tick drains at most one committed store per cycle (pipelined L1D
// store port).
func (b *Base) Tick() {
	e := b.core.SB.Head()
	if e == nil || !e.Committed {
		return
	}
	b.walk()
	line := e.Line()
	if b.priv.Writable(line) {
		if b.priv.StoreVisible(e.Addr, e.Data[:e.Size]) {
			b.core.SB.Pop()
			b.requested = false
			b.cDrained.Inc()
			return
		}
	}
	if !b.requested {
		// Demand write-permission request (the prefetch-at-commit one
		// may have been dropped under MSHR pressure).
		b.requested = b.priv.RequestWritable(line, false, true, nil)
	}
	b.cBlocked.Inc()
}

// Forward implements cpu.DrainMechanism: the baseline holds no stores
// outside the SB.
func (b *Base) Forward(addr uint64, size uint8) (cpu.ForwardResult, [8]byte) {
	return cpu.FwdMiss, [8]byte{}
}

// Drained implements cpu.DrainMechanism.
func (b *Base) Drained() bool { return true }

// FlushDone implements cpu.DrainMechanism.
func (b *Base) FlushDone() bool { return true }

// Quiescent implements cpu.DrainMechanism; a fence commits at once.
func (b *Base) Quiescent(fence bool) cpu.Idle {
	switch e := b.core.SB.Head(); {
	case !fence && (e == nil || !e.Committed):
		return cpu.Idle{Ticks: cpu.Forever}
	case !fence && b.requested && b.still() && !b.priv.Writable(e.Line()):
		return cpu.Idle{Ticks: cpu.Forever, Blocked: b.cBlocked}
	}
	return cpu.Idle{}
}
