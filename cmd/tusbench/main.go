// Command tusbench regenerates the paper's evaluation: every figure of
// Sec. VI plus the CAM-model table, printed as text tables.
//
// Usage:
//
//	tusbench                 # everything (Figs. 8-15 + CAM table)
//	tusbench -fig 10         # one figure
//	tusbench -list           # servable inventory (figures/benches) as JSON
//	tusbench -table cam      # CAM model vs paper claims
//	tusbench -table config   # Table I configuration dump
//	tusbench -summary        # headline averages
//	tusbench -hist           # occupancy/latency histogram report
//	tusbench -dse 502.gcc5   # TUS design-space exploration
//	tusbench -quick          # small traces (CI-sized)
//	tusbench -ops N          # trace length per thread
//	tusbench -check          # run the TSO checker on every simulation
//	tusbench -j 8            # run up to 8 simulation cells in parallel
//	tusbench -j 0            # parallel across all CPUs (default)
//	tusbench -cache DIR      # persistent content-addressed result cache
//	tusbench -journal        # record a crash-consistent run journal
//	tusbench -resume ID      # resume a killed journaled run
//
// Parallel runs are byte-identical to -j 1: every figure fans its
// independent (benchmark, mechanism, SB) cells out to a worker pool
// and assembles output in deterministic cell order.
//
// Every cell runs once under the supervision layer: panics are captured
// into crash reports, and a failing or hung cell is quarantined on its
// first failure so its figure degrades to an explicit partial result
// instead of killing the run.
//
// With -journal, the run keeps one state file, .tusjournal/<run-id>.json:
// its flags (every flag by name, but -v, -journal-dir, -cpuprofile and
// -memprofile), the cells it quarantined and whether it finished, each
// change saved whole by temp file and rename. After a crash or SIGKILL,
// `tusbench -resume <run-id>` sets the journaled flags again and reruns
// the run exactly as a fresh one would: the result cache (-cache, one of
// the flags) serves the cells that finished, and quarantined cells stay
// quarantined. -resume takes no other flag but -j (which then overrides
// the journaled one), -v, -journal-dir, -cpuprofile and -memprofile, and
// it refuses a journal whose header holds no flags or a flag this binary
// lacks. Resumed output is byte-identical to an uninterrupted run (all
// resume chatter goes to stderr).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/prof"
	"tusim/internal/supervise"
	"tusim/internal/workload"
)

// runHeader is the journal's header: the binary's harness version and
// every flag of the run, by name, but the invocation flags. A resume
// sets each stored flag again, so it depends on nothing but the journal,
// not on this binary's defaults.
type runHeader struct {
	// Version pins the harness identity the run was recorded under;
	// resuming with a skewed binary is detected and warned (completed
	// cells then miss the content-addressed cache and resimulate).
	Version string            `json:"harness_version,omitempty"`
	Flags   map[string]string `json:"flags"`
}

// invocationFlags shape one invocation, not the run's results: they are
// not journaled, and -resume takes them (and -j) beside itself.
var invocationFlags = map[string]bool{"resume": true, "v": true, "journal-dir": true, "cpuprofile": true, "memprofile": true}

func main() {
	// The flags defined below are all of tusbench's settings, which a
	// journal records by name: start from an empty set, so a process
	// that registered flags of its own before main (a test binary that
	// runs main) journals none of them.
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fig := flag.Int("fig", 0, "regenerate one figure (8-15); 0 = all")
	list := flag.Bool("list", false, "print the servable inventory (figures, benches, cell counts) as JSON")
	table := flag.String("table", "", "print a table: cam | config")
	summary := flag.Bool("summary", false, "print headline averages only")
	hist := flag.Bool("hist", false, "print the occupancy/latency histogram report (SB-bound matrix @114SB)")
	dse := flag.String("dse", "", "run the TUS design-space exploration on a benchmark (e.g. 502.gcc5)")
	jsonOut := flag.Bool("json", false, "emit the full evaluation as JSON")
	quick := flag.Bool("quick", false, "use small traces")
	ops := flag.Int("ops", 0, "override trace length per thread")
	pops := flag.Int("parallel-ops", 0, "override per-thread trace length for 16-thread runs")
	seed := flag.Int64("seed", 1, "workload seed")
	check := flag.Bool("check", false, "attach the TSO checker to every run")
	verbose := flag.Bool("v", false, "print each run on stderr")
	workers := flag.Int("j", 0, "max concurrent simulation cells (0 = all CPUs, 1 = serial)")
	cacheDir := flag.String("cache", "", "persistent result cache directory (empty = off)")
	journalOn := flag.Bool("journal", false, "record a crash-consistent run journal under -journal-dir")
	journalDir := flag.String("journal-dir", ".tusjournal", "run journal directory")
	resume := flag.String("resume", "", "resume a killed journaled run by its run ID")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this invocation to the file")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to the file on exit")
	flag.Parse()

	// A resumed run takes every result-determining setting from its
	// journal: a flag that would change them is a usage error, not
	// something to drop silently.
	explicitJ := false
	flag.Visit(func(f *flag.Flag) {
		explicitJ = explicitJ || f.Name == "j"
		if *resume != "" && f.Name != "j" && !invocationFlags[f.Name] {
			fmt.Fprintf(os.Stderr, "tusbench: -%s cannot be combined with -resume: a resumed run takes its settings from its journal\n", f.Name)
			os.Exit(2)
		}
	})

	// A resumed run sets its journaled flags again; only an explicit -j
	// (wall-clock-only) overrides one of them.
	var resumeState *supervise.RunState
	if *resume != "" {
		st, err := supervise.Load(*journalDir, *resume)
		if err != nil {
			fail(err)
		}
		var h runHeader
		err = json.Unmarshal(st.Header, &h)
		if err == nil && h.Flags == nil {
			err = errors.New("no flags (journaled by an older tusbench)")
		}
		for name, v := range h.Flags {
			if err == nil && !(name == "j" && explicitJ) {
				err = flag.Set(name, v)
			}
		}
		if err != nil {
			fail(fmt.Errorf("journal %s: bad run header: %w", *resume, err))
		}
		if h.Version != harness.Version {
			fmt.Fprintf(os.Stderr, "tusbench: warning: run %s was journaled under %s, this binary is %s; completed cells will miss the result cache and resimulate\n",
				*resume, h.Version, harness.Version)
		}
		resumeState = st
		if st.Finished {
			fmt.Fprintf(os.Stderr, "tusbench: run %s already finished; replaying from cache\n", *resume)
		}
		if *cacheDir == "" {
			fmt.Fprintf(os.Stderr, "tusbench: warning: run %s had no result cache; completed cells will resimulate\n", *resume)
		}
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	profStop = stopProf
	defer stopProf()

	if *list {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(harness.List()); err != nil {
			fail(err)
		}
		return
	}

	if *table != "" {
		switch *table {
		case "cam":
			harness.PrintCAMTable(os.Stdout)
		case "config":
			printConfig()
		default:
			fmt.Fprintf(os.Stderr, "unknown table %q\n", *table)
			os.Exit(2)
		}
		return
	}

	r := harness.NewRunner()
	if *quick {
		r = harness.NewQuickRunner()
	}
	if *ops > 0 {
		r.Ops = *ops
	}
	if *pops > 0 {
		r.ParallelOps = *pops
	}
	r.Seed = *seed
	r.Check = *check
	r.Verbose = *verbose
	r.Workers = *workers
	if *cacheDir != "" {
		cache, err := harness.NewDiskCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		r.Cache = cache
	}
	r.Supervisor = harness.NewSupervisor(config.Default().CellTimeout)

	var journal *supervise.Journal
	switch {
	case resumeState != nil:
		for k, reason := range resumeState.Quarantined {
			r.Supervisor.Quarantine(k, reason)
		}
		journal = supervise.Continue(*journalDir, resumeState)
		fmt.Fprintf(os.Stderr, "tusbench: resuming run %s: %d cells quarantined\n",
			*resume, len(resumeState.Quarantined))
	case *journalOn:
		hdr := runHeader{Version: harness.Version, Flags: map[string]string{}}
		flag.VisitAll(func(f *flag.Flag) {
			if !invocationFlags[f.Name] {
				hdr.Flags[f.Name] = f.Value.String()
			}
		})
		id := supervise.NewRunID()
		j, err := supervise.Create(*journalDir, id, hdr)
		if err != nil {
			fail(err)
		}
		journal = j
		fmt.Fprintf(os.Stderr, "tusbench: journaling run %s (resume with: tusbench -resume %s -journal-dir %s)\n",
			id, id, *journalDir)
	}
	r.Supervisor.SetJournal(journal)

	switch {
	case *jsonOut:
		rep, err := harness.BuildJSON(r)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	case *dse != "":
		points, err := harness.DSE(r, *dse)
		if err != nil {
			fail(err)
		}
		harness.PrintDSE(os.Stdout, points)
	case *hist:
		rows, err := harness.Histograms(r, 114)
		if err != nil {
			fail(err)
		}
		harness.PrintHistograms(os.Stdout, rows)
	case *summary:
		if err := printSummary(r); err != nil {
			fail(err)
		}
	default:
		figs := []int{8, 9, 10, 11, 12, 13, 14, 15}
		if *fig != 0 {
			figs = []int{*fig}
		}
		for _, f := range figs {
			if err := harness.RenderFigure(r, f, os.Stdout); err != nil {
				fail(err)
			}
		}
		if *fig == 0 {
			harness.PrintCAMTable(os.Stdout)
		}
	}

	// Commit clean completion to the journal and list the quarantined
	// cells, which every product skipped, on stderr (stdout carries only
	// figure output).
	if journal != nil {
		journal.Finish()
		if err := journal.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tusbench: warning: journal %s stopped recording: %v\n", journal.RunID, err)
		}
	}
	r.PrintQuarantined(os.Stderr, "tusbench: warning")
}

// profStop finalizes any active profiles; fail must flush them because
// os.Exit skips deferred calls.
var profStop func()

func fail(err error) {
	if profStop != nil {
		profStop()
	}
	fmt.Fprintln(os.Stderr, "tusbench:", err)
	os.Exit(1)
}

// printSummary reproduces the abstract's headline numbers.
func printSummary(r *harness.Runner) error {
	st, err := harness.Speedups(r, 114, 114)
	if err != nil {
		return err
	}
	edpST, err := harness.EDP(r, workload.SBBound(), 114, 114)
	if err != nil {
		return err
	}
	par, err := harness.Parsec(r, 114, 114)
	if err != nil {
		return err
	}
	small, err := harness.Speedups(r, 114, 32)
	if err != nil {
		return err
	}
	fmt.Println("Headline results (paper values in parentheses):")
	fmt.Printf("  TUS speedup, ST SB-bound geomean @114SB:   %+.1f%%  (paper: +3.2%%)\n",
		100*(st.Geomean[config.TUS]-1))
	fmt.Printf("  TUS EDP reduction, ST SB-bound @114SB:     %+.1f%%  (paper: -6.4%%)\n",
		100*(edpST.Geomean[config.TUS]-1))
	fmt.Printf("  TUS speedup, Parsec geomean @114SB:        %+.1f%%  (paper: +3.5%%)\n",
		100*(par.Speedup.Geomean[config.TUS]-1))
	fmt.Printf("  TUS EDP reduction, Parsec @114SB:          %+.1f%%  (paper: -5.1%%)\n",
		100*(par.EDP.Geomean[config.TUS]-1))
	fmt.Printf("  TUS@32SB vs baseline@114SB, ST SB-bound:   %+.1f%%  (paper: +2%%)\n",
		100*(small.Geomean[config.TUS]-1))
	return nil
}

func printConfig() {
	c := config.Default()
	fmt.Println("Table I configuration:")
	fmt.Printf("  front-end width        %d fetch / %d decode / %d rename\n", c.FetchWidth, c.DecodeWidth, c.RenameWidth)
	fmt.Printf("  back-end width         %d dispatch / %d issue / %d commit\n", c.DispatchWidth, c.IssueWidth, c.CommitWidth)
	fmt.Printf("  load/store queue       %d / %d entries\n", c.LQEntries, c.SBEntries)
	fmt.Printf("  re-order buffer        %d entries\n", c.ROBEntries)
	fmt.Printf("  functional units       %d simple ALU + %d complex ALUs\n", c.SimpleALUs, c.ComplexALUs)
	fmt.Printf("  int latencies          add %dc, mul %dc, div %dc\n", c.IntAddLat, c.IntMulLat, c.IntDivLat)
	fmt.Printf("  fp latencies           add %dc, mul %dc, div %dc\n", c.FPAddLat, c.FPMulLat, c.FPDivLat)
	fmt.Printf("  L1D                    %dKB, %d-way, %d-cycle, %d MSHRs, stream prefetcher\n",
		c.L1D.SizeBytes>>10, c.L1D.Ways, c.L1D.Latency, c.L1D.MSHRs)
	fmt.Printf("  L2                     %dMB, %d-way, %d-cycle round trip\n", c.L2.SizeBytes>>20, c.L2.Ways, c.L2.Latency)
	fmt.Printf("  L3                     %dMB, %d-way, %d-cycle round trip\n", c.L3.SizeBytes>>20, c.L3.Ways, c.L3.Latency)
	fmt.Printf("  DRAM                   %d-cycle latency\n", c.DRAMLatency)
	fmt.Printf("  TUS                    %d-entry WOQ, %d WCBs, max atomic group %d, %d lex bits\n",
		c.WOQEntries, c.WCBCount, c.MaxAtomicGroup, c.LexBits)
}
