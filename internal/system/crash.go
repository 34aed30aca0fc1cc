package system

import (
	"fmt"

	"tusim/internal/faults"
	"tusim/internal/mech"
	"tusim/internal/memsys"
	"tusim/internal/tus"
)

// MSHRSnapshot is one in-flight miss at crash time, with who waits on
// it: pending loads, and the write requesters (by kind: "tus", "csb")
// that hear its outcome.
type MSHRSnapshot struct {
	Line     uint64   `json:"line"`
	Born     uint64   `json:"born"`
	WantM    bool     `json:"want_m"`
	Prefetch bool     `json:"prefetch"`
	Loads    int      `json:"loads,omitempty"`
	Writers  []string `json:"writers,omitempty"`
}

// CoreSnapshot is one core's architectural-ish state at crash time:
// enough to see what the store machinery was doing without a debugger.
type CoreSnapshot struct {
	Core        int            `json:"core"`
	Committed   uint64         `json:"committed"`
	SBLen       int            `json:"sb_len"`
	SBOverflows uint64         `json:"sb_overflows"`
	WOQ         []tus.WOQInfo  `json:"woq,omitempty"`
	TSOB        *mech.TSOBInfo `json:"tsob,omitempty"`
	MSHRs       []MSHRSnapshot `json:"mshrs,omitempty"`
}

// Crash kinds.
const (
	// CrashWatchdog: no core committed anything for a full watchdog
	// window (deadlock or livelock).
	CrashWatchdog = "watchdog"
	// CrashInvariant: protocol code panicked with a ProtocolError.
	CrashInvariant = "invariant"
	// CrashAudit: the periodic invariant auditor found an inconsistency.
	CrashAudit = "audit"
	// CrashMaxCycles: the run exceeded Config.MaxCycles.
	CrashMaxCycles = "max-cycles"
	// CrashPanic: the simulation goroutine panicked with something other
	// than a ProtocolError (a plain Go bug). Assembled by PanicReport in
	// the supervision layer, so no machine state is attached.
	CrashPanic = "panic"
)

// CrashReport is the typed error system.Run returns when the machine
// dies. It carries everything needed to triage — and, combined with the
// workload description the harness adds, to replay — the failure.
type CrashReport struct {
	Kind      string `json:"kind"`
	Cycle     uint64 `json:"cycle"`
	Mechanism string `json:"mechanism"`
	Cores     int    `json:"cores"`
	Message   string `json:"message"`
	// Violation is set for invariant/audit crashes.
	Violation *faults.ProtocolError `json:"violation,omitempty"`
	// FaultPlan is the injected fault schedule, if any (Seed 0 and all
	// rates zero when the run was fault-free).
	FaultPlan faults.Plan    `json:"fault_plan"`
	PerCore   []CoreSnapshot `json:"per_core"`
	// Directory lists the coherence transactions in flight: line,
	// requester, stage, and the requests queued behind it.
	Directory []memsys.TxnInfo `json:"directory,omitempty"`
	// Stack is the captured goroutine stack for panic crashes.
	Stack string `json:"stack,omitempty"`
}

// Error implements error.
func (r *CrashReport) Error() string {
	return fmt.Sprintf("system: %s crash at cycle %d (%s, %d cores): %s",
		r.Kind, r.Cycle, r.Mechanism, r.Cores, r.Message)
}

// PanicReport converts a recovered panic into a CrashReport so the
// supervision layer can route Go-level bugs through the same
// classification and crash-to-repro pipeline as protocol crashes. No
// machine is available at the recovery site, so the report carries only
// the panic payload and stack.
func PanicReport(value any, stack []byte) *CrashReport {
	return &CrashReport{
		Kind:    CrashPanic,
		Message: fmt.Sprintf("panic: %v", value),
		Stack:   string(stack),
	}
}

// Transient reports whether retrying the crashed run could plausibly
// succeed. Only a watchdog trip under active fault injection qualifies:
// chaos schedules deliberately stall the machine, so a no-progress
// window may be pressure rather than a real deadlock. Everything else —
// invariant violations, auditor trips, cycle-budget overruns, panics,
// and watchdog trips on a fault-free (fully deterministic) run — will
// recur on every retry and must quarantine immediately.
func (r *CrashReport) Transient() bool {
	return r.Kind == CrashWatchdog && r.FaultPlan.Enabled()
}

// Classification renders the transient/deterministic verdict for
// crash-to-repro bundles and logs.
func (r *CrashReport) Classification() string {
	if r.Transient() {
		return "transient"
	}
	return "deterministic"
}

// crash assembles a CrashReport from the machine's current state.
func (s *System) crash(kind string, violation *faults.ProtocolError, message string) *CrashReport {
	r := &CrashReport{
		Kind:      kind,
		Cycle:     s.Q.Now(),
		Mechanism: s.Cfg.Mechanism.String(),
		Cores:     s.Cfg.Cores,
		Message:   message,
		Violation: violation,
		FaultPlan: s.faults.Plan(),
	}
	for i, c := range s.Cores {
		snap := CoreSnapshot{
			Core:        i,
			Committed:   c.Committed(),
			SBLen:       c.SB.Len(),
			SBOverflows: c.SB.Overflows,
		}
		switch m := s.Mechs[i].(type) {
		case *tus.TUS:
			snap.WOQ = m.AuditWOQ()
		case *mech.SSB:
			snap.TSOB = m.AuditTSOB()
		}
		p := s.Privs[i]
		p.AuditMSHRs(func(line, born uint64, wantM, prefetch bool) {
			loads, writers := p.MSHRWaiters(line)
			snap.MSHRs = append(snap.MSHRs, MSHRSnapshot{Line: line, Born: born, WantM: wantM, Prefetch: prefetch, Loads: loads, Writers: writers})
		})
		r.PerCore = append(r.PerCore, snap)
	}
	r.Directory = s.Dir.AuditTxns()
	return r
}

// InstallFaults wires a fault injector into every layer of the machine
// (directory, private hierarchies, TUS drain) and schedules the plan's
// sabotage, if any. Call before Run. A nil injector is a no-op. A
// sabotage of unknown kind or on a core the machine does not have is an
// error, and nothing is installed.
func (s *System) InstallFaults(in *faults.Injector) error {
	spec := in.Plan().SabotageSpec
	if spec.Kind != "" {
		if spec.Kind != faults.SabotageHideLine && spec.Kind != faults.SabotageDropOwner {
			return fmt.Errorf("system: sabotage kind %q: want %q or %q",
				spec.Kind, faults.SabotageHideLine, faults.SabotageDropOwner)
		}
		if spec.Core < 0 || spec.Core >= len(s.Privs) {
			return fmt.Errorf("system: sabotage core %d: want 0..%d", spec.Core, len(s.Privs)-1)
		}
	}
	s.faults = in
	if in == nil {
		return nil
	}
	s.Dir.SetFaults(in)
	for i, p := range s.Privs {
		p.SetFaults(in)
		if t, ok := s.Mechs[i].(*tus.TUS); ok {
			t.SetFaults(in, s.CoreStats[i])
		}
	}
	if spec.Kind != "" {
		s.Q.At2(spec.Cycle, s.sabotageTick, 0, 0)
	}
	return nil
}

// sabotageTick is the sabotage hook's event. It arms at spec.Cycle
// (armed == 0), then tries the corruption once per cycle from the next
// cycle on until a candidate exists, so a given seed always corrupts the
// same state at the same cycle.
func (s *System) sabotageTick(armed, _ uint64) {
	if armed != 0 && s.trySabotage(s.faults.Plan().SabotageSpec) {
		return
	}
	s.Q.After2(1, s.sabotageTick, 1, 0)
}

// trySabotage attempts spec's corruption once and reports whether it
// landed.
func (s *System) trySabotage(spec faults.Sabotage) bool {
	if spec.Kind == faults.SabotageHideLine {
		_, ok := s.Privs[spec.Core].SabotageHideLine()
		return ok
	}
	target, found := uint64(0), false
	s.Dir.AuditEntries(func(line uint64, owner int, _ uint64, busy bool, _ uint64) {
		if found || busy || owner != spec.Core {
			return
		}
		// Only corrupt a settled line (no miss or writeback in flight)
		// the private really holds: the resulting directory/private
		// disagreement is then unambiguous.
		p := s.Privs[spec.Core]
		if p.MSHRPending(line) || p.WBPending(line) || !p.Writable(line) {
			return
		}
		pl := p.Lookup(line)
		if pl == nil || pl.NotVisible {
			return
		}
		target, found = line, true
	})
	return found && s.Dir.SabotageDropOwner(target)
}
