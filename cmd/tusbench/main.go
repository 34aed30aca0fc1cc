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
// Every cell runs under the supervision layer: panics are captured into
// crash reports, transient chaos failures retry with backoff, and a
// deterministically failing cell is quarantined so its figure degrades
// to an explicit partial result instead of killing the run.
//
// With -journal, the run appends a crash-consistent record of every
// cell start/finish to .tusjournal/<run-id>.jsonl; after a crash or
// SIGKILL, `tusbench -resume <run-id> -cache DIR` replays the run,
// serving completed cells from the result cache and keeping quarantined
// cells quarantined. Resumed output is byte-identical to an
// uninterrupted run (all resume chatter goes to stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/prof"
	"tusim/internal/supervise"
	"tusim/internal/workload"
)

// runHeader is the journal's run_start payload: everything needed to
// reconstruct the run's result-determining settings on resume.
type runHeader struct {
	// Version pins the harness identity the run was recorded under;
	// resuming with a skewed binary is detected and warned (completed
	// cells then miss the content-addressed cache and resimulate).
	Version     string `json:"harness_version,omitempty"`
	Mode        string `json:"mode"` // "figs", "json", "dse", "hist" or "summary"
	Fig         int    `json:"fig,omitempty"`
	DSE         string `json:"dse,omitempty"` // the swept benchmark, mode "dse"
	Quick       bool   `json:"quick,omitempty"`
	Ops         int    `json:"ops"`
	ParallelOps int    `json:"parallel_ops"`
	Seed        int64  `json:"seed"`
	Check       bool   `json:"check,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	Cache       string `json:"cache,omitempty"`
}

func main() {
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

	mode := "figs"
	switch {
	case *jsonOut:
		mode = "json"
	case *dse != "":
		mode = "dse"
	case *hist:
		mode = "hist"
	case *summary:
		mode = "summary"
	}
	hdr := runHeader{
		Version:     harness.Version,
		Mode:        mode,
		Fig:         *fig,
		DSE:         *dse,
		Quick:       *quick,
		Ops:         *ops,
		ParallelOps: *pops,
		Seed:        *seed,
		Check:       *check,
		Workers:     *workers,
		Cache:       *cacheDir,
	}

	// A resumed run reconstructs its result-determining settings from
	// the journal header; only -j (wall-clock-only) may be overridden on
	// the resume command line.
	var resumeState *supervise.RunState
	if *resume != "" {
		st, err := supervise.Load(*journalDir, *resume)
		if err != nil {
			fail(err)
		}
		for _, w := range st.Warnings {
			fmt.Fprintf(os.Stderr, "tusbench: journal %s: %s\n", *resume, w)
		}
		var h runHeader
		if err := json.Unmarshal(st.Header, &h); err != nil {
			fail(fmt.Errorf("journal %s: bad run header: %w", *resume, err))
		}
		if h.Version != "" && h.Version != harness.Version {
			fmt.Fprintf(os.Stderr, "tusbench: warning: run %s was journaled under %s, this binary is %s; completed cells will miss the result cache and resimulate\n",
				*resume, h.Version, harness.Version)
		}
		h.Version = harness.Version
		jExplicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "j" {
				jExplicit = true
			}
		})
		if !jExplicit {
			*workers = h.Workers
		}
		h.Workers = *workers
		hdr = h
		*quick = h.Quick
		*ops = h.Ops
		*pops = h.ParallelOps
		*seed = h.Seed
		*check = h.Check
		*cacheDir = h.Cache
		*fig = h.Fig
		*dse = h.DSE
		resumeState = st
		if st.Finished {
			fmt.Fprintf(os.Stderr, "tusbench: run %s already finished; replaying from cache\n", *resume)
		}
		if h.Cache == "" {
			fmt.Fprintf(os.Stderr, "tusbench: warning: run %s had no result cache; completed cells will resimulate\n", *resume)
		}
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
		j, err := supervise.OpenAppend(*journalDir, *resume, resumeState.NextSeq)
		if err != nil {
			fail(err)
		}
		journal = j
		fmt.Fprintf(os.Stderr, "tusbench: resuming run %s: %d cells done, %d quarantined, %d were in flight\n",
			*resume, len(resumeState.Done), len(resumeState.Quarantined), len(resumeState.InFlight))
	case *journalOn:
		id := supervise.NewRunID()
		j, err := supervise.Create(*journalDir, id, hdr)
		if err != nil {
			fail(err)
		}
		journal = j
		fmt.Fprintf(os.Stderr, "tusbench: journaling run %s (resume with: tusbench -resume %s -journal-dir %s)\n",
			id, id, *journalDir)
	}
	if journal != nil {
		r.Supervisor.SetJournal(journal)
	}
	// finish commits clean completion to the journal and surfaces any
	// figure degradations on stderr (stdout carries only figure output).
	finish := func() {
		if journal != nil {
			journal.Finish()
			journal.Close()
		}
		if deg := r.DegradedCells(); len(deg) > 0 {
			fmt.Fprintf(os.Stderr, "tusbench: warning: %d figure cells degraded by quarantine:\n", len(deg))
			for _, d := range deg {
				fmt.Fprintf(os.Stderr, "  %s: %s: %s\n", d.Figure, d.Cell, d.Reason)
			}
		}
	}

	switch hdr.Mode {
	case "json":
		rep, err := harness.BuildJSON(r)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fail(err)
		}
	case "dse":
		points, err := harness.DSE(r, *dse)
		if err != nil {
			fail(err)
		}
		harness.PrintDSE(os.Stdout, points)
	case "hist":
		rows, err := harness.Histograms(r, 114)
		if err != nil {
			fail(err)
		}
		harness.PrintHistograms(os.Stdout, rows)
	case "summary":
		if err := printSummary(r); err != nil {
			fail(err)
		}
	case "figs":
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
	default:
		// Only a journal header can carry a mode main did not just compute.
		fail(fmt.Errorf("journal %s: unknown run mode %q", *resume, hdr.Mode))
	}
	finish()
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
