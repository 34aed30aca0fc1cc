package modelcheck

import (
	"context"
	"errors"
	"runtime"
	"strconv"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/litmus"
	"tusim/internal/parmap"
)

// ExploreOpts bounds a controlled-schedule exploration of the real
// simulator.
type ExploreOpts struct {
	// Skews is how many per-core start-skew indices to sweep (0 = 8).
	Skews int
	// MaxDecisions is the decision-prefix depth: only the first
	// MaxDecisions injector choice points of a run are enumerated;
	// later ones keep their quiet defaults (0 = 8).
	MaxDecisions int
	// MaxRuns caps total simulator runs across all skews (0 = 512).
	MaxRuns int
	// Plan enables the injector choice points to drive. Only sites with
	// a nonzero rate reach the decision source at all; the scripted
	// values, not the rates, decide what happens. Nil = ExplorePlan().
	Plan *faults.Plan
	// AuditEvery attaches the invariant auditor at this cadence (0 = off).
	AuditEvery uint64
}

func (o ExploreOpts) withDefaults() ExploreOpts {
	if o.Skews <= 0 {
		o.Skews = 8
	}
	if o.MaxDecisions <= 0 {
		o.MaxDecisions = 8
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 512
	}
	if o.Plan == nil {
		p := ExplorePlan()
		o.Plan = &p
	}
	return o
}

// ExplorePlan enables every legal perturbation site so the explorer can
// script it. Rates select *which* sites consult the decision source
// (all of them); magnitudes are kept small because the enumeration only
// branches on their {min, max} extremes anyway.
func ExplorePlan() faults.Plan {
	return faults.Plan{
		ReqExtraPct: 100, ReqExtraMax: 3,
		NackPct:      100,
		BusyStallPct: 100, BusyStallMax: 3,
		ProbeExtraPct: 100, ProbeExtraMax: 3,
		MSHRPressurePct: 100,
		WCBFlushPct:     100,
		ShuffleProbes:   true,
	}
}

// runRef identifies one explored run: a start skew plus the decision
// schedule that drove it.
type runRef struct {
	Skew   int               `json:"skew"`
	Script []faults.Decision `json:"script,omitempty"`
}

// Violation is one run whose behaviour left the architecture's
// contract: a TSO-checker/auditor/crash failure, or an outcome outside
// the oracle's allowed set.
type Violation struct {
	Ref runRef
	// Outcome is the observed vector (nil when the run died before
	// producing one).
	Outcome Outcome
	// Err is the checker/crash error, nil for outcome-set violations.
	Err error
	// Reason is a one-line classification.
	Reason string
}

// Exploration is the explorer's record of one (program, mechanism)
// cell.
type Exploration struct {
	Test string
	Mech config.Mechanism
	// Plan/AuditEvery echo the options the cell ran under (repro
	// bundles embed them).
	Plan       faults.Plan
	AuditEvery uint64
	// Outcomes is the observed outcome census.
	Outcomes map[string]int
	// Runs counts simulator executions; Pruned counts schedules skipped
	// because their consumed decision trace had already been explored
	// (commuting suffixes collapse to one run).
	Runs, Pruned int
	// Deepened reports whether some run consumed more choice points
	// than MaxDecisions (the exploration is then bounded, not
	// exhaustive, over the injector's nondeterminism).
	Deepened bool
	// BudgetExhausted reports MaxRuns stopped the exploration early.
	BudgetExhausted bool
	// Violation is the first contract violation encountered, if any.
	Violation *Violation
	// Transcript logs every run in the serial walk's order (identical
	// invocations produce identical transcripts at any GOMAXPROCS).
	Transcript []string
}

// appendScript appends the compact deterministic encoding of a decision
// schedule: each decision's kind letter and value, "-" when empty.
func appendScript(b []byte, ds []faults.Decision) []byte {
	if len(ds) == 0 {
		return append(b, '-')
	}
	for _, d := range ds {
		b = strconv.AppendUint(append(b, d.Kind), d.Val, 10)
	}
	return b
}

// Explore drives the real simulator through its nondeterminism choice
// points for one litmus program under one mechanism. For every start
// skew it walks the injector's decision tree breadth-first by iterative
// prefix deepening: run the quiet schedule, then re-run with each of
// the first MaxDecisions consumed choice points flipped through its
// alternatives, expanding only choice points a run actually reached.
// Each level of the tree runs on every CPU through the shared pool and
// is committed in queue order, so the result is the serial walk's.
// Every terminal outcome is recorded; the first checker/auditor/crash
// failure, or the first outcome outside the oracle's TSO-allowed set,
// stops the cell with a minimized, replayable schedule. A program the
// oracle cannot enumerate comes back as a violation carrying why.
func Explore(test litmus.Test, m config.Mechanism, opts ExploreOpts) *Exploration {
	oracle, err := Oracle(test, Limits{})
	if err != nil {
		return &Exploration{Test: test.Name, Mech: m, Violation: &Violation{Err: err, Reason: "no oracle for the program"}}
	}
	return explore(test, m, opts, oracle)
}

// explore is Explore against an allowed set the caller already holds.
func explore(test litmus.Test, m config.Mechanism, opts ExploreOpts, oracle *OracleResult) *Exploration {
	opts = opts.withDefaults()
	ex := &Exploration{
		Test:       test.Name,
		Mech:       m,
		Plan:       *opts.Plan,
		AuditEvery: opts.AuditEvery,
		Outcomes:   map[string]int{},
	}

	var buf []byte // one run's transcript line, then its trace key
	for skew := 0; skew < opts.Skews; skew++ {
		// seen holds consumed-trace keys: two scripts that collapse to
		// the same consumed schedule are the same run (the sleep-set
		// flavour of pruning — flips that commute into an already
		// explored schedule are skipped, and branches are only opened
		// at choice points a run actually consumed).
		seen := map[string]bool{}
		queue := [][]faults.Decision{nil}
		for len(queue) > 0 {
			if ex.Runs >= opts.MaxRuns {
				ex.BudgetExhausted = true
				return ex
			}
			// A level is the queue as it stands, capped by the budget. The
			// pool stops at its first failing run; the commit loop finds it.
			level := queue[:min(len(queue), opts.MaxRuns-ex.Runs)]
			queue = queue[len(level):]
			runs := make([]scriptedRun, len(level))
			_, _ = parmap.Parmap(context.TODO(), runtime.GOMAXPROCS(0), len(level), func(i int) error {
				runs[i] = runScripted(test, m, runRef{Skew: skew, Script: level[i]}, opts)
				if runs[i].err == nil && !oracle.Allowed(runs[i].obs) {
					return errors.New("outcome outside the TSO-allowed set")
				}
				return runs[i].err
			})

			// Commit in queue order, so the walk is the serial one at any
			// worker count. Every run before the first violation has run (a
			// pruned run repeats a committed schedule, so it is never it).
			for k, script := range level {
				r := runs[k]
				ref := runRef{Skew: skew, Script: script}
				ex.Runs++

				buf = strconv.AppendInt(append(buf[:0], "skew="...), int64(skew), 10)
				buf = appendScript(append(buf, " script="...), script)
				if r.err != nil {
					ex.Transcript = append(ex.Transcript, string(buf)+" -> ERROR "+r.err.Error())
					ex.Violation = minimize(test, m, opts, oracle, &Violation{
						Ref: ref, Err: r.err, Reason: "run failed under a legal schedule",
					})
					return ex
				}
				key := Key(r.obs)
				buf = append(append(buf, " -> "...), key...)
				ex.Transcript = append(ex.Transcript, string(buf))
				buf = appendScript(buf[:0], r.trace)
				if seen[string(buf)] {
					ex.Pruned++
					continue
				}
				seen[string(buf)] = true

				ex.Outcomes[key]++
				if !oracle.Allowed(r.obs) {
					ex.Violation = minimize(test, m, opts, oracle, &Violation{
						Ref: ref, Outcome: r.obs, Reason: "outcome outside the TSO-allowed set",
					})
					return ex
				}

				// Expand: flip each newly consumed choice point within the
				// deepening bound through its alternatives.
				limit := len(r.trace)
				if limit > opts.MaxDecisions {
					limit = opts.MaxDecisions
					ex.Deepened = true
				}
				for i := len(script); i < limit; i++ {
					for _, alt := range r.trace[i].Alternatives() {
						if alt == r.trace[i].Val {
							continue
						}
						next := append([]faults.Decision(nil), r.trace[:i+1]...)
						next[i].Val = alt
						queue = append(queue, next)
					}
				}
			}
		}
	}
	return ex
}

// scriptedRun is one run's outcome, consumed decision trace and error.
type scriptedRun struct {
	obs   Outcome
	trace []faults.Decision
	err   error
}

// runScripted executes one litmus run under a scripted decision source.
func runScripted(test litmus.Test, m config.Mechanism, ref runRef, opts ExploreOpts) scriptedRun {
	src := faults.NewScriptSource(ref.Script)
	obs, err := litmus.RunOne(test, m, ref.Skew, litmus.Opts{
		Faults:     opts.Plan,
		Source:     src,
		AuditEvery: opts.AuditEvery,
	})
	return scriptedRun{obs, src.Trace(), err}
}

// minimize shrinks a violating schedule: first truncate decisions off
// the end, then quiet individual decisions back to their defaults,
// keeping every change that still reproduces a violation (a failed run
// or an outcome outside the oracle's set). The result is the replay
// schedule embedded in the repro bundle.
func minimize(test litmus.Test, m config.Mechanism, opts ExploreOpts, oracle *OracleResult, v *Violation) *Violation {
	budget := 2*len(v.Ref.Script) + 8
	fails := func(script []faults.Decision) bool {
		if budget <= 0 {
			return false
		}
		budget--
		r := runScripted(test, m, runRef{Skew: v.Ref.Skew, Script: script}, opts)
		return r.err != nil || !oracle.Allowed(r.obs)
	}

	script := append([]faults.Decision(nil), v.Ref.Script...)
	for len(script) > 0 && fails(script[:len(script)-1]) {
		script = script[:len(script)-1]
	}
	for i := len(script) - 1; i >= 0; i-- {
		if script[i].Val == script[i].Default() {
			continue
		}
		quieted := append([]faults.Decision(nil), script...)
		quieted[i].Val = quieted[i].Default()
		if fails(quieted) {
			script = quieted
		}
	}
	// Drop a trailing run of defaults: they are what an empty tail
	// answers anyway.
	for len(script) > 0 && script[len(script)-1].Val == script[len(script)-1].Default() {
		script = script[:len(script)-1]
	}

	// Re-run the minimized schedule to refresh the violation evidence.
	if r := runScripted(test, m, runRef{Skew: v.Ref.Skew, Script: script}, opts); r.err != nil || !oracle.Allowed(r.obs) {
		v.Ref.Script = script
		v.Outcome = r.obs
		v.Err = r.err
	}
	return v
}
