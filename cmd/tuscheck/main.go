// Command tuscheck model-checks the simulator against the operational
// x86-TSO oracle: for each litmus program × mechanism cell it
// enumerates the complete TSO-allowed outcome set, drives the real
// simulator through its nondeterminism choice points (start skews +
// scripted injector decisions), and diffs the two. Any simulator
// outcome outside the allowed set — or any checker/auditor crash — is
// reported with a minimal replayable schedule.
//
// Usage:
//
//	tuscheck                          # full suite × base,CSB,TUS
//	tuscheck -prog SB,MP -mech TUS    # selected cells
//	tuscheck -mech all                # all five mechanisms
//	tuscheck -smoke                   # small CI budgets
//	tuscheck -oracle                  # print oracle outcome sets only
//	tuscheck -skews 8 -depth 8 -runs 512   # exploration budgets
//	tuscheck -j 8                     # check up to 8 cells at once
//
// Cells are independent (each explores its own simulator instances), so
// -j fans them out to the shared worker pool; within a cell, each level
// of the schedule tree runs on every CPU whatever -j is. Reports are
// buffered and printed in deterministic cell order, identical at any -j.
//
// Exit status is nonzero if any cell is unsound; the violating
// schedule is written to -crash-out and replays with
// `tusim -repro <bundle>`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/litmus"
	"tusim/internal/modelcheck"
	"tusim/internal/parmap"
)

func main() {
	progs := flag.String("prog", "", "comma-separated litmus programs (default: whole suite)")
	mech := flag.String("mech", "base,CSB,TUS", "comma-separated mechanisms, or 'all'")
	skews := flag.Int("skews", 8, "start-skew indices to sweep per cell")
	depth := flag.Int("depth", 8, "injector decision-prefix depth to enumerate")
	runs := flag.Int("runs", 512, "max simulator runs per cell")
	states := flag.Int("states", modelcheck.DefaultMaxStates, "oracle state budget")
	auditEvery := flag.Uint64("audit", 0, "attach the invariant auditor every N cycles (0 = off)")
	smoke := flag.Bool("smoke", false, "small bounded budgets for CI (overrides -skews/-depth/-runs)")
	oracleOnly := flag.Bool("oracle", false, "print oracle-allowed outcome sets and exit")
	verbose := flag.Bool("v", false, "print uncovered outcomes and exploration detail")
	crashOut := flag.String("crash-out", "mc-crash.json", "where to write the repro bundle on violation")
	workers := flag.Int("j", 0, "max concurrent cells (0 = one per CPU); each cell's schedules still use every CPU; output identical at any -j")
	flag.Parse()

	tests, err := selectTests(*progs)
	if err != nil {
		fail(err)
	}

	if *oracleOnly {
		for _, lt := range tests {
			p, err := lt.Program()
			if err != nil {
				fail(err)
			}
			res := modelcheck.Enumerate(p, modelcheck.Limits{MaxStates: *states})
			status := ""
			if !res.Complete {
				status = "  (TRUNCATED at state budget)"
			}
			fmt.Printf("%-10s %d states, %d allowed outcomes%s\n", lt.Name, res.States, len(res.Outcomes), status)
			for _, k := range res.SortedKeys() {
				fmt.Printf("    %s\n", k)
			}
		}
		return
	}

	mechs, err := selectMechs(*mech)
	if err != nil {
		fail(err)
	}

	eo := modelcheck.ExploreOpts{
		Skews:        *skews,
		MaxDecisions: *depth,
		MaxRuns:      *runs,
		AuditEvery:   *auditEvery,
	}
	if *smoke {
		eo.Skews, eo.MaxDecisions, eo.MaxRuns = 3, 4, 64
	}

	// The (program, mechanism) cells are independent; fan them out to a
	// worker pool and report in deterministic cell order.
	type mcCell struct {
		lt litmus.Test
		m  config.Mechanism
	}
	var cells []mcCell
	for _, lt := range tests {
		for _, m := range mechs {
			cells = append(cells, mcCell{lt, m})
		}
	}
	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	results := make([]*modelcheck.Report, len(cells))
	failIdx, err := parmap.Parmap(context.Background(), w, len(cells), func(i int) error {
		var err error
		results[i], err = modelcheck.Check(cells[i].lt, cells[i].m, eo,
			modelcheck.Limits{MaxStates: *states})
		return err
	})
	if err != nil {
		// Every cell before the first failing one has run: report them.
		results = results[:failIdx]
	}

	exit := 0
	for _, r := range results {
		r.Write(os.Stdout)
		if *verbose && len(r.Uncovered) > 0 {
			fmt.Printf("    deepened=%v budget_exhausted=%v\n",
				r.Exploration.Deepened, r.Exploration.BudgetExhausted)
		}
		if !r.Sound() {
			exit = 1
			if b := harness.ViolationBundle(r); b != nil {
				if err := b.Save(*crashOut); err != nil {
					fail(err)
				}
				fmt.Printf("    repro bundle written to %s (replay: tusim -repro %s)\n",
					*crashOut, *crashOut)
			}
		}
	}
	if err != nil {
		fail(err)
	}
	if exit != 0 {
		fmt.Fprintln(os.Stderr, "tuscheck: UNSOUND — simulator produced TSO-forbidden behaviour")
	}
	os.Exit(exit)
}

func selectTests(spec string) ([]litmus.Test, error) {
	all := litmus.Tests()
	if spec == "" {
		return all, nil
	}
	var out []litmus.Test
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		lt, ok := litmus.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown litmus program %q (suite: %s)", name, suiteNames(all))
		}
		out = append(out, lt)
	}
	return out, nil
}

func suiteNames(tests []litmus.Test) string {
	names := make([]string, len(tests))
	for i, lt := range tests {
		names[i] = lt.Name
	}
	return strings.Join(names, ",")
}

func selectMechs(spec string) ([]config.Mechanism, error) {
	if spec == "all" {
		return append([]config.Mechanism(nil), config.Mechanisms...), nil
	}
	var out []config.Mechanism
	for _, name := range strings.Split(spec, ",") {
		m, err := config.ParseMechanism(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tuscheck:", err)
	os.Exit(1)
}
