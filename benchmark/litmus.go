package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"tusim/internal/config"
	"tusim/internal/isa"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
	"tusim/internal/system"
)

// litmusMechs are the mechanisms the model checker is run under.
var litmusMechs = []config.Mechanism{config.Baseline, config.CSB, config.TUS}

// exploreOpts bounds each cell's exploration of the real simulator.
var exploreOpts = modelcheck.ExploreOpts{Skews: 8, MaxDecisions: 8, MaxRuns: 128}

// litmusCell is one (program, mechanism) pair to model-check.
type litmusCell struct {
	test litmus.Test
	mech config.Mechanism
}

func (c litmusCell) key() string { return fmt.Sprintf("%s/%v", c.test.Name, c.mech) }

func litmusCells() []litmusCell {
	var out []litmusCell
	for _, t := range litmus.Tests() {
		for _, m := range litmusMechs {
			out = append(out, litmusCell{t, m})
		}
	}
	return out
}

func litmusCellList() string {
	var b strings.Builder
	for _, c := range litmusCells() {
		fmt.Fprintf(&b, "%s %s threads=%d\n", wlLitmus, c.key(), len(c.test.Threads))
	}
	fmt.Fprintf(&b, "%s explore skews=%d decisions=%d runs=%d\n", wlLitmus, exploreOpts.Skews, exploreOpts.MaxDecisions, exploreOpts.MaxRuns)
	return b.String()
}

// litmusRep is what one pass over the cells yields.
type litmusRep struct {
	repTiming
	runs, pruned, states int
}

// reportDigest is what expected.json pins for one cell.
func reportDigest(oracle *modelcheck.OracleResult, ex *modelcheck.Exploration) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", oracle.States, len(oracle.Outcomes), len(ex.Outcomes), ex.Runs, ex.Pruned)
}

// runLitmusRep model-checks every cell once, serially. Untraced it calls
// Check, the product path; traced it calls Enumerate and Explore itself
// so that each can be timed, and applies Check's verdict to the two.
func runLitmusRep(c *runCtx, tr *tracer, rep int, cells []litmusCell) *litmusRep {
	out := &litmusRep{}
	t0 := time.Now()
	out.span = tr.begin("bench.rep", fmt.Sprintf("%s/%d", c.name, rep), noSpan, 0)
	for _, cell := range cells {
		id := fmt.Sprintf("%s/%d/%s", c.name, rep, cell.key())
		tc := time.Now()
		sp := tr.begin("bench.cell", id, out.span, 0)
		var oracle *modelcheck.OracleResult
		var ex *modelcheck.Exploration
		sound := false
		var err error
		if tr == nil {
			var r *modelcheck.Report
			if r, err = modelcheck.Check(cell.test, cell.mech, exploreOpts, modelcheck.Limits{}); err == nil {
				oracle, ex, sound = r.Oracle, r.Exploration, r.Sound()
			}
		} else {
			var p litmus.Program
			if p, err = cell.test.Program(); err == nil {
				s := tr.begin("modelcheck.Enumerate", id, sp, 0)
				oracle = modelcheck.Enumerate(p, modelcheck.Limits{})
				tr.end(s)
				s = tr.begin("modelcheck.Explore", id, sp, 0)
				ex = modelcheck.Explore(cell.test, cell.mech, exploreOpts)
				tr.end(s)
				sound = oracle.Complete && ex.Violation == nil
				for key := range ex.Outcomes {
					if _, ok := oracle.Outcomes[key]; !ok {
						sound = false
					}
				}
			}
		}
		switch {
		case err != nil:
			c.attempt(1)
			c.fail("cell %s: %v", cell.key(), err)
		case !sound:
			c.attempt(1)
			c.fail("cell %s: not sound against the TSO oracle", cell.key())
		default:
			c.checkOutput("reports", cell.key(), reportDigest(oracle, ex))
			out.runs += ex.Runs
			out.pruned += ex.Pruned
			out.states += oracle.States
		}
		tr.end(sp)
		out.cells = append(out.cells, time.Since(tc).Seconds())
	}
	tr.end(out.span)
	out.wall = time.Since(t0)
	return out
}

// runLitmus is litmus_check: the model checker over the litmus suite.
// The seed only orders the cells; a cell's outputs do not depend on it,
// so the two pinned seeds pin the same reports in two orders.
func runLitmus(c *runCtx) error {
	var cells []litmusCell
	err := c.timeSetup(func(int) error {
		cells = litmusCells()
		for _, cell := range cells {
			if _, err := cell.test.Program(); err != nil {
				return err
			}
		}
		rand.New(rand.NewSource(c.seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		var order strings.Builder
		for _, cell := range cells {
			order.WriteString(cell.key())
			order.WriteByte(' ')
		}
		c.checkOutput("inputs", "cell order", bytesDigest([]byte(order.String())))
		return nil
	})
	if err != nil {
		return err
	}

	cold, plain, traced := repeat(c, func(tr *tracer, n int) *litmusRep { return runLitmusRep(c, tr, n, cells) })
	if !c.traced {
		reportReps(c, cold, plain, float64(cold.runs))
		return nil
	}

	c.set("bench.peak_rss_mb", peakRSSMiB())
	ref := plain[0]
	c.set("modelcheck.oracle_states", float64(ref.states))
	c.set("modelcheck.sched_runs", float64(ref.runs))
	c.set("modelcheck.pruned", float64(ref.pruned))
	var enumUs, exploreUs []float64
	for _, r := range traced {
		c.account(r.span, r.wall)
		self := selfByName(c.tr.tree(r.span))
		enumUs = append(enumUs, float64(self["modelcheck.Enumerate"])/1e3/float64(r.states))
		exploreUs = append(exploreUs, float64(self["modelcheck.Explore"])/1e3/float64(r.runs))
	}
	c.setSummary("modelcheck.enumerate_us_per_state", enumUs)
	c.setSummary("modelcheck.explore_us_per_run", exploreUs)
	reportTraceOverhead(c, plain, traced)

	c.guard(func() { probeLitmusNew(c, cells) })
	runProbes(c)
	return nil
}

// probeLitmusNew prices system.New at the litmus shape (2-4 cores, the
// stream prefetcher off, the programs' own micro-ops): the share of a
// schedule's ~explore_us_per_run that is building the machine.
func probeLitmusNew(c *runCtx, cells []litmusCell) {
	sp := c.tr.begin("system.New", c.name+"/probe", noSpan, 0)
	defer c.tr.end(sp)
	const perCell = 8
	ns, _ := timeOps(perCell*len(cells), func(i int) {
		cell := cells[i%len(cells)]
		cfg := config.Default().WithMechanism(cell.mech).WithCores(len(cell.test.Threads))
		cfg.StreamPrefetcher = false
		streams := make([]isa.Stream, len(cell.test.Threads))
		for t, th := range cell.test.Threads {
			streams[t] = isa.NewSliceStream(th.Ops)
		}
		_, err := system.New(cfg, streams)
		mustProbe(err == nil, "system.New failed for "+cell.key())
	})
	c.setSummary("system.new_us_per_cell", usPerOp(ns))
}
