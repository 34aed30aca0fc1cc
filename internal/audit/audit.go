// Package audit implements the periodic invariant auditor: it walks the
// whole machine's coherence and TUS state between events and reports
// the first inconsistency as a structured ProtocolError. The walk order
// is fully deterministic (cores in index order, lines in address
// order), so a given seed always reports the same first violation.
//
// Every check is written to have no false positives: states that are
// legally inconsistent mid-transaction (directory busy bit held, a
// writeback or miss in flight) are skipped rather than guessed at.
// Under chaos fault injection the perturbations are all legal, so any
// report from this package is a real protocol bug.
package audit

import (
	"fmt"

	"tusim/internal/faults"
	"tusim/internal/memsys"
	"tusim/internal/system"
	"tusim/internal/tus"
)

// Auditor checks global state invariants. It implements system.Auditor.
type Auditor struct {
	sys *system.System

	// MaxMissAge bounds how long one MSHR may stay allocated; beyond it
	// the miss is presumed lost (a request/response was dropped).
	MaxMissAge uint64
	// MaxWOQAge bounds how long a WOQ entry may wait for publication.
	MaxWOQAge uint64
}

// Default age bounds: far beyond any legal latency (DRAM is ~160
// cycles; retries and lex gating add contention, not unbounded delay)
// but well inside the watchdog window, so the auditor names the stuck
// structure before the watchdog gives a generic "no progress".
const (
	DefaultMaxMissAge = 1_000_000
	DefaultMaxWOQAge  = 1_000_000
)

// New builds an auditor over a machine.
func New(s *system.System) *Auditor {
	return &Auditor{sys: s, MaxMissAge: DefaultMaxMissAge, MaxWOQAge: DefaultMaxWOQAge}
}

// Audit implements system.Auditor: it returns the first violation
// found, or nil when the machine is consistent.
func (a *Auditor) Audit(cycle uint64) *faults.ProtocolError {
	if pe := a.checkOwnership(); pe != nil {
		return pe
	}
	if pe := a.checkLineBits(); pe != nil {
		return pe
	}
	if pe := a.checkWOQ(cycle); pe != nil {
		return pe
	}
	if pe := a.checkAges(cycle); pe != nil {
		return pe
	}
	return a.checkLexAcyclic()
}

// settled reports whether a line's coherence state is stable enough to
// judge: no directory transaction, writeback, or miss in flight on it.
func (a *Auditor) settled(core int, line uint64) bool {
	if _, _, busy, _ := a.sys.Dir.EntryInfo(line); busy {
		return false
	}
	p := a.sys.Privs[core]
	return !p.WBPending(line) && !p.MSHRPending(line)
}

// checkOwnership verifies the single-writer property and the
// directory/private owner agreement: a line held E/M by a settled
// private hierarchy must be owned by exactly that core in the
// directory, and no two hierarchies may hold E/M at once.
func (a *Auditor) checkOwnership() *faults.ProtocolError {
	holders := map[uint64]int{}
	var pe *faults.ProtocolError
	for core := range a.sys.Privs {
		a.sys.Privs[core].AuditLines(func(pl *memsys.PLine) {
			if pe != nil {
				return
			}
			if pl.State != memsys.StateE && pl.State != memsys.StateM {
				return
			}
			if prev, dup := holders[pl.Line]; dup {
				pe = faults.Violationf("audit", core, pl.Line, "single-writer",
					"cores %d and %d both hold %v; %s", prev, core, pl.State, a.dumpLine(pl.Line))
				return
			}
			holders[pl.Line] = core
			if !a.settled(core, pl.Line) {
				return
			}
			owner, _, _, ok := a.sys.Dir.EntryInfo(pl.Line)
			if !ok || owner != core {
				pe = faults.Violationf("audit", core, pl.Line, "dir-owner-agreement",
					"private holds %v but directory owner is %d; %s", pl.State, owner, a.dumpLine(pl.Line))
			}
		})
		if pe != nil {
			return pe
		}
	}
	return nil
}

// checkLineBits verifies per-line TUS bit consistency and residency:
// not-visible lines are pinned in L1, ready implies not-visible with
// write permission, owned lines hold their data somewhere, and the miss
// a line names is a miss for that line.
func (a *Auditor) checkLineBits() *faults.ProtocolError {
	var pe *faults.ProtocolError
	for core, p := range a.sys.Privs {
		p.AuditLines(func(pl *memsys.PLine) {
			missLine, inFlight := p.MissLine(pl)
			switch {
			case pe != nil:
			case pl.NotVisible && !pl.InL1:
				pe = faults.Violationf("audit", core, pl.Line, "notvisible-in-l1",
					"not-visible line is not L1 resident; %s", a.dumpLine(pl.Line))
			case pl.Ready && !pl.NotVisible:
				pe = faults.Violationf("audit", core, pl.Line, "ready-implies-notvisible",
					"ready bit set on a visible line; %s", a.dumpLine(pl.Line))
			case pl.Ready && pl.State != memsys.StateE && pl.State != memsys.StateM:
				pe = faults.Violationf("audit", core, pl.Line, "ready-implies-perm",
					"ready bit set without write permission (state %v); %s", pl.State, a.dumpLine(pl.Line))
			case (pl.State == memsys.StateE || pl.State == memsys.StateM) && !pl.InL1 && !pl.InL2:
				pe = faults.Violationf("audit", core, pl.Line, "owned-line-resident",
					"line held %v resides in neither L1 nor L2; %s", pl.State, a.dumpLine(pl.Line))
			case inFlight && missLine != pl.Line:
				pe = faults.Violationf("audit", core, pl.Line, "mshr-line-agreement",
					"line names the miss for %#x; %s", missLine, a.dumpLine(pl.Line))
			}
		})
		if pe != nil {
			return pe
		}
	}
	return nil
}

// checkWOQ verifies WOQ <-> L1 agreement on every TUS core: each WOQ
// entry's line must be a not-visible L1 resident whose ready bit
// matches, and every not-visible line must be WOQ-tracked.
func (a *Auditor) checkWOQ(cycle uint64) *faults.ProtocolError {
	for core, m := range a.sys.Mechs {
		t, ok := m.(*tus.TUS)
		if !ok {
			continue
		}
		priv := a.sys.Privs[core]
		tracked := map[uint64]bool{}
		for _, e := range t.AuditWOQ() {
			tracked[e.Line] = true
			pl := priv.Lookup(e.Line)
			if pl == nil || !pl.NotVisible {
				return faults.Violationf("audit", core, e.Line, "woq-l1-agreement",
					"WOQ entry (group %d, ready=%v) has no not-visible L1 backing; %s",
					e.Group, e.Ready, a.dumpLine(e.Line))
			}
			if pl.Ready != e.Ready {
				return faults.Violationf("audit", core, e.Line, "woq-ready-agreement",
					"WOQ ready=%v but line ready=%v; %s", e.Ready, pl.Ready, a.dumpLine(e.Line))
			}
		}
		var pe *faults.ProtocolError
		priv.AuditLines(func(pl *memsys.PLine) {
			if pe == nil && pl.NotVisible && !tracked[pl.Line] {
				pe = faults.Violationf("audit", core, pl.Line, "woq-tracks-notvisible",
					"not-visible line is not WOQ-tracked; %s", a.dumpLine(pl.Line))
			}
		})
		if pe != nil {
			return pe
		}
	}
	return nil
}

// checkAges bounds how long misses and WOQ entries may remain pending.
func (a *Auditor) checkAges(cycle uint64) *faults.ProtocolError {
	var pe *faults.ProtocolError
	for core := range a.sys.Privs {
		a.sys.Privs[core].AuditMSHRs(func(line, born uint64, wantM, prefetch bool) {
			if pe == nil && cycle-born > a.MaxMissAge {
				pe = faults.Violationf("audit", core, line, "mshr-age-bound",
					"miss (wantM=%v prefetch=%v) outstanding for %d cycles (born %d)",
					wantM, prefetch, cycle-born, born)
			}
		})
		if pe != nil {
			return pe
		}
	}
	for core, m := range a.sys.Mechs {
		t, ok := m.(*tus.TUS)
		if !ok {
			continue
		}
		for _, e := range t.AuditWOQ() {
			if cycle-e.Born > a.MaxWOQAge {
				return faults.Violationf("audit", core, e.Line, "woq-age-bound",
					"WOQ entry (group %d perm=%v ready=%v gated=%v) pending for %d cycles",
					e.Group, e.HasPerm, e.Ready, e.Gated, cycle-e.Born)
			}
		}
	}
	return nil
}

// checkLexAcyclic detects deadlock cycles in the lex-order wait-for
// graph. Each TUS core waits (at most) on the lex-least missing-
// permission line of its WOQ-head atomic group; an edge points to the
// core currently holding that line with write permission, but only
// when that holder would *delay* a probe under the Sec. III-C rule
// (if it would relinquish, progress follows the next retry and there
// is no wait). Around any cycle of delay-edges the lex keys must be
// non-decreasing, hence all equal — and a tie cycle never resolves, so
// every cycle this finds is a genuine protocol deadlock, never a
// transient.
func (a *Auditor) checkLexAcyclic() *faults.ProtocolError {
	n := len(a.sys.Mechs)
	waitLine := make([]uint64, n) // line core i waits on
	next := make([]int, n)        // functional graph; -1 = no edge
	woqs := make([][]tus.WOQInfo, n)
	for i, m := range a.sys.Mechs {
		next[i] = -1
		if t, ok := m.(*tus.TUS); ok {
			woqs[i] = t.AuditWOQ()
		}
	}
	for i, woq := range woqs {
		if len(woq) == 0 {
			continue
		}
		head := woq[0].Group
		best := -1
		for j, e := range woq {
			if e.Group != head {
				break
			}
			if !e.HasPerm && (best < 0 || e.Lex < woq[best].Lex) {
				best = j
			}
		}
		if best < 0 {
			continue // head group fully authorized: publishing, not waiting
		}
		want := woq[best]
		for h := range a.sys.Privs {
			if h == i {
				continue
			}
			pl := a.sys.Privs[h].Lookup(want.Line)
			if pl == nil || !pl.NotVisible ||
				(pl.State != memsys.StateE && pl.State != memsys.StateM) {
				continue
			}
			if a.wouldDelay(woqs[h], want.Line, want.Lex) {
				waitLine[i] = want.Line
				next[i] = h
			}
			break // at most one holder (single-writer)
		}
	}
	// Cycle detection by pointer chasing in the functional graph.
	for start := 0; start < n; start++ {
		slow, steps := start, 0
		for next[slow] >= 0 && steps <= n {
			slow = next[slow]
			steps++
			if slow == start {
				chain := fmt.Sprintf("core %d", start)
				for c := next[start]; ; c = next[c] {
					chain += fmt.Sprintf(" -[line %#x]-> core %d", waitLine[c], c)
					if c == start {
						break
					}
				}
				return faults.Violationf("audit", start, waitLine[start], "lex-acyclic",
					"lex-order wait-for cycle: %s", chain)
			}
		}
	}
	return nil
}

// wouldDelay replays the holder's HandleProbe lex decision from its
// audited WOQ: delay iff no missing-permission entry with a strictly
// smaller lex key precedes (or shares) the probed line's atomic group.
func (a *Auditor) wouldDelay(woq []tus.WOQInfo, line, probeLex uint64) bool {
	group, found := 0, false
	for _, e := range woq {
		if e.Line == line {
			group, found = e.Group, true
		}
	}
	if !found {
		// The holder's WOQ no longer tracks the line (it is between
		// publication steps); a probe would be delayed conservatively,
		// but it is about to become visible — no lasting wait.
		return false
	}
	end := -1
	for j, e := range woq {
		if e.Group == group {
			end = j
		}
	}
	for j, e := range woq {
		if j > end {
			break
		}
		if !e.HasPerm && e.Lex < probeLex {
			return false
		}
	}
	return true
}

// dumpLine renders every party's view of one line (private copies and
// the directory entry) for violation reports.
func (a *Auditor) dumpLine(line uint64) string {
	s := fmt.Sprintf("line %#x:", line)
	for core, p := range a.sys.Privs {
		pl := p.Lookup(line)
		if pl == nil {
			continue
		}
		s += fmt.Sprintf(" core%d{%v l1=%v l2=%v nv=%v rdy=%v umask=%#x wb=%v mshr=%v}",
			core, pl.State, pl.InL1, pl.InL2, pl.NotVisible, pl.Ready, uint64(pl.UMask),
			p.WBPending(line), p.MSHRPending(line))
	}
	owner, sharers, busy, ok := a.sys.Dir.EntryInfo(line)
	if ok {
		s += fmt.Sprintf(" dir{owner=%d sharers=%#x busy=%v}", owner, sharers, busy)
	} else {
		s += " dir{untracked}"
	}
	return s
}

// Install attaches a new auditor to the machine with the given cadence
// (0 selects every 64 cycles) and returns it.
func Install(s *system.System, every uint64) *Auditor {
	if every == 0 {
		every = 64
	}
	a := New(s)
	s.SetAuditor(a, every)
	return a
}

var _ system.Auditor = (*Auditor)(nil)
