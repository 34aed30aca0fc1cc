package modelcheck

import (
	"strconv"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/litmus"
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
// contract: a TSO-checker/auditor/crash failure, or (flagged by the
// comparator) an outcome outside the oracle's allowed set.
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
	// Outcomes is the observed outcome census; Vecs holds each key's
	// vector form.
	Outcomes map[string]int
	Vecs     map[string]Outcome
	// First maps each outcome key to the first run that produced it
	// (the replay handle the comparator turns into a repro bundle).
	First map[string]runRef
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
	// Transcript logs every run in execution order (deterministic:
	// identical invocations produce identical transcripts).
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
// Every terminal outcome is recorded; the first checker/auditor/crash
// failure (or annotated-forbidden outcome) stops the cell with a
// minimized, replayable schedule.
func Explore(test litmus.Test, m config.Mechanism, opts ExploreOpts) *Exploration {
	opts = opts.withDefaults()
	ex := &Exploration{
		Test:       test.Name,
		Mech:       m,
		Plan:       *opts.Plan,
		AuditEvery: opts.AuditEvery,
		Outcomes:   map[string]int{},
		Vecs:       map[string]Outcome{},
		First:      map[string]runRef{},
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
			script := queue[0]
			queue = queue[1:]

			ref := runRef{Skew: skew, Script: script}
			obs, trace, err := runScripted(test, m, ref, opts)
			ex.Runs++

			buf = strconv.AppendInt(append(buf[:0], "skew="...), int64(skew), 10)
			buf = appendScript(append(buf, " script="...), script)
			if err != nil {
				ex.Transcript = append(ex.Transcript, string(buf)+" -> ERROR "+err.Error())
				ex.Violation = minimize(test, m, opts, &Violation{
					Ref: ref, Err: err, Reason: "run failed under a legal schedule",
				})
				return ex
			}
			key := Key(obs)
			buf = append(append(buf, " -> "...), key...)
			ex.Transcript = append(ex.Transcript, string(buf))
			buf = appendScript(buf[:0], trace)
			if seen[string(buf)] {
				ex.Pruned++
				continue
			}
			seen[string(buf)] = true

			ex.Outcomes[key]++
			ex.Vecs[key] = obs
			if _, ok := ex.First[key]; !ok {
				ex.First[key] = ref
			}
			if test.Forbidden != nil && test.Forbidden(obs) {
				ex.Violation = minimize(test, m, opts, &Violation{
					Ref: ref, Outcome: obs, Reason: "annotated TSO-forbidden outcome",
				})
				return ex
			}

			// Expand: flip each newly consumed choice point within the
			// deepening bound through its alternatives.
			limit := len(trace)
			if limit > opts.MaxDecisions {
				limit = opts.MaxDecisions
				ex.Deepened = true
			}
			for i := len(script); i < limit; i++ {
				for _, alt := range trace[i].Alternatives() {
					if alt == trace[i].Val {
						continue
					}
					next := append([]faults.Decision(nil), trace[:i+1]...)
					next[i].Val = alt
					queue = append(queue, next)
				}
			}
		}
	}
	return ex
}

// runScripted executes one litmus run under a scripted decision source,
// returning the outcome and the consumed decision trace.
func runScripted(test litmus.Test, m config.Mechanism, ref runRef, opts ExploreOpts) (Outcome, []faults.Decision, error) {
	src := faults.NewScriptSource(ref.Script)
	obs, err := litmus.RunOne(test, m, ref.Skew, litmus.Opts{
		Faults:     opts.Plan,
		Source:     src,
		AuditEvery: opts.AuditEvery,
	})
	return obs, src.Trace(), err
}

// minimize shrinks a violating schedule: first truncate decisions off
// the end, then quiet individual decisions back to their defaults,
// keeping every change that still reproduces a violation. The result
// is the replay schedule embedded in the repro bundle.
func minimize(test litmus.Test, m config.Mechanism, opts ExploreOpts, v *Violation) *Violation {
	budget := 2*len(v.Ref.Script) + 8
	fails := func(script []faults.Decision) bool {
		if budget <= 0 {
			return false
		}
		budget--
		obs, _, err := runScripted(test, m, runRef{Skew: v.Ref.Skew, Script: script}, opts)
		if err != nil {
			return true
		}
		return test.Forbidden != nil && test.Forbidden(obs)
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
	obs, _, err := runScripted(test, m, runRef{Skew: v.Ref.Skew, Script: script}, opts)
	if err != nil || (test.Forbidden != nil && test.Forbidden(obs)) {
		v.Ref.Script = script
		v.Outcome = obs
		v.Err = err
	}
	return v
}
