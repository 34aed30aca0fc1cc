package modelcheck

import (
	"fmt"
	"io"
	"sort"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/litmus"
)

// Report is the comparator's verdict for one (program, mechanism)
// cell: the simulator's bounded-exhaustively observed outcome set
// diffed against the oracle's exact TSO-allowed set.
type Report struct {
	Test string
	Mech config.Mechanism

	Oracle      *OracleResult
	Exploration *Exploration

	// Unsound lists outcome keys the simulator produced that TSO
	// forbids — each one is a real protocol bug.
	Unsound []string
	// Uncovered lists TSO-allowed outcome keys no explored schedule
	// produced. Coverage information, not failure: mechanisms are free
	// to be stricter than TSO (atomic groups are), and bounded budgets
	// miss behaviours.
	Uncovered []string
	// Violation carries the failing run when the cell is unsound (or a
	// run crashed); Bundle is its minimal replayable schedule.
	Violation *Violation
	Bundle    *harness.ReproBundle
}

// Sound reports whether the simulator stayed inside the TSO-allowed
// outcome set and no run failed its checker/auditor.
func (r *Report) Sound() bool { return len(r.Unsound) == 0 && r.Violation == nil }

// Coverage returns observed-allowed and total-allowed outcome counts.
func (r *Report) Coverage() (got, total int) {
	total = len(r.Oracle.Outcomes)
	for k := range r.Oracle.Outcomes {
		if _, ok := r.Exploration.Outcomes[k]; ok {
			got++
		}
	}
	return got, total
}

// bundle builds the replayable schedule for a violating run.
func (r *Report) bundle(ref runRef) *harness.ReproBundle {
	return &harness.ReproBundle{
		Kind:       "litmus",
		Name:       r.Test,
		Mechanism:  r.Mech.String(),
		Skew:       ref.Skew,
		AuditEvery: r.Exploration.AuditEvery,
		Faults:     r.Exploration.Plan,
		Script:     ref.Script,
		Scripted:   true,
	}
}

// Check model-checks one litmus program under one mechanism: exact
// oracle enumeration, bounded-exhaustive schedule exploration of the
// real simulator, then the diff. The returned error is reserved for
// harness problems (program not exportable, oracle budget exceeded);
// protocol violations land in the Report, with a repro bundle.
func Check(test litmus.Test, m config.Mechanism, eo ExploreOpts, lim Limits) (*Report, error) {
	p, err := test.Program()
	if err != nil {
		return nil, err
	}
	oracle := Enumerate(p, lim)
	if !oracle.Complete {
		return nil, fmt.Errorf("modelcheck: oracle state budget exceeded on %s (%d states); raise Limits.MaxStates",
			test.Name, oracle.States)
	}

	ex := Explore(test, m, eo)
	r := &Report{Test: test.Name, Mech: m, Oracle: oracle, Exploration: ex}

	for key := range ex.Outcomes {
		if _, ok := oracle.Outcomes[key]; !ok {
			r.Unsound = append(r.Unsound, key)
		}
	}
	sort.Strings(r.Unsound)
	for _, key := range oracle.SortedKeys() {
		if _, ok := ex.Outcomes[key]; !ok {
			r.Uncovered = append(r.Uncovered, key)
		}
	}

	switch {
	case ex.Violation != nil:
		r.Violation = ex.Violation
	case len(r.Unsound) > 0:
		r.Violation = &Violation{
			Ref:     ex.First[r.Unsound[0]],
			Outcome: ex.Vecs[r.Unsound[0]],
			Reason:  fmt.Sprintf("outcome %s is outside the TSO-allowed set", r.Unsound[0]),
		}
	}
	if r.Violation != nil {
		r.Bundle = r.bundle(r.Violation.Ref)
	}
	return r, nil
}

// Write renders the report compactly.
func (r *Report) Write(w io.Writer) {
	got, total := r.Coverage()
	status := "SOUND"
	if !r.Sound() {
		status = "UNSOUND"
	}
	fmt.Fprintf(w, "%-10s %-5s %s  oracle=%d outcomes (%d states)  observed=%d  coverage=%d/%d  runs=%d pruned=%d\n",
		r.Test, r.Mech, status, total, r.Oracle.States, len(r.Exploration.Outcomes), got, total,
		r.Exploration.Runs, r.Exploration.Pruned)
	if len(r.Unsound) > 0 {
		fmt.Fprintf(w, "  UNSOUND outcomes: %v\n", r.Unsound)
	}
	if r.Violation != nil {
		fmt.Fprintf(w, "  violation: %s (skew %d, %d-decision schedule)\n",
			r.Violation.Reason, r.Violation.Ref.Skew, len(r.Violation.Ref.Script))
		if r.Violation.Err != nil {
			fmt.Fprintf(w, "  error: %v\n", r.Violation.Err)
		}
	}
	if len(r.Uncovered) > 0 {
		fmt.Fprintf(w, "  uncovered (allowed, never observed): %v\n", r.Uncovered)
	}
}
