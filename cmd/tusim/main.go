// Command tusim runs one benchmark proxy on one machine configuration
// and prints cycles, IPC, stall breakdown, energy, and the mechanism's
// key statistics.
//
// Usage:
//
//	tusim -bench 502.gcc5 -mech TUS -sb 114 -ops 150000
//	tusim -list                     # list benchmark proxies
//	tusim -bench dedup -mech TUS    # 16-core Parsec proxy
//	tusim -bench 505.mcf -mech base -check   # with TSO checker
//	tusim -bench 502.gcc1 -save-trace /tmp/t # export trace files
//	tusim -replay /tmp/t.0.tust -mech CSB    # replay a trace file
//	tusim -trace-out t.json                  # store-lifecycle trace (Perfetto)
//	tusim -chaos-seed 7                      # seeded chaos-fuzz sweep
//	tusim -repro tus-crash.json              # replay a crash bundle
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"tusim/internal/audit"
	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/harness"
	"tusim/internal/isa"
	"tusim/internal/prof"
	"tusim/internal/system"
	"tusim/internal/trace"
	"tusim/internal/tso"
	"tusim/internal/workload"
)

func main() {
	bench := flag.String("bench", "502.gcc5", "benchmark proxy name (-list to enumerate)")
	mech := flag.String("mech", "TUS", "store mechanism: base | TUS | SSB | CSB | SPB")
	sb := flag.Int("sb", 114, "store buffer entries")
	ops := flag.Int("ops", 150_000, "micro-ops per thread")
	seed := flag.Int64("seed", 1, "workload seed")
	check := flag.Bool("check", false, "run the TSO consistency checker")
	list := flag.Bool("list", false, "list available benchmark proxies")
	woq := flag.Int("woq", 64, "TUS write ordering queue entries")
	wcbs := flag.Int("wcbs", 2, "write combining buffers")
	noCoalesce := flag.Bool("no-coalesce", false, "disable TUS coalescing (ablation)")
	dumpStats := flag.Bool("stats", false, "dump all raw counters")
	saveTrace := flag.String("save-trace", "", "write the generated trace(s) to <path>.<thread>.tust and exit")
	fromTrace := flag.String("replay", "", "run a saved single-thread trace file instead of a benchmark proxy")
	traceOut := flag.String("trace-out", "", "record the store-lifecycle trace (SB/WCB/WOQ/MSHR spans) and write it as Chrome trace JSON to this file")
	chaosSeed := flag.Uint64("chaos-seed", 0, "run the seeded chaos-fuzz sweep (litmus matrix + bench soak) and exit")
	auditEvery := flag.Uint64("audit", 0, "audit machine invariants every N cycles (0 = off)")
	watchdog := flag.Uint64("watchdog", 0, "no-commit-progress watchdog window in cycles (0 = default)")
	repro := flag.String("repro", "", "replay a crash repro bundle and exit")
	crashOut := flag.String("crash-out", "tus-crash.json", "where -chaos-seed writes the repro bundle on failure")
	workers := flag.Int("j", 0, "max concurrent chaos cells (0 = all CPUs, 1 = serial; results identical)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this invocation to the file")
	memprofile := flag.String("memprofile", "", "write a post-GC heap profile to the file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	profStop = stopProf
	defer stopProf()

	if *repro != "" {
		bundle, lerr := harness.LoadBundle(*repro)
		if err := lerr; err != nil {
			fail(err)
		}
		fmt.Printf("replaying %s run %q (%s, fault seed %#x)...\n",
			bundle.Kind, bundle.Name, bundle.Mechanism, bundle.Faults.Seed)
		if err := bundle.Replay(); err != nil {
			reportCrash(err)
			stopProf()
			os.Exit(1)
		}
		fmt.Println("repro: run completed clean — failure did NOT reproduce (bundle/binary mismatch?)")
		return
	}

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tSUITE\tTHREADS\tSB-BOUND")
		for _, b := range workload.All() {
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\n", b.Name, b.Suite, b.Threads, b.SBBound)
		}
		w.Flush()
		return
	}

	m, err := config.ParseMechanism(*mech)
	if err != nil {
		fail(err)
	}

	if *chaosSeed != 0 {
		w := *workers
		if w == 0 {
			w = runtime.NumCPU()
		}
		runChaos(*chaosSeed, *auditEvery, *crashOut, w)
		return
	}

	b, ok := workload.ByName(*bench)
	if !ok && *fromTrace == "" {
		fail(fmt.Errorf("unknown benchmark %q (use -list)", *bench))
	}

	threads := 1
	var streams []isa.Stream
	benchName := *fromTrace
	if *fromTrace != "" {
		f, err := os.Open(*fromTrace)
		if err != nil {
			fail(err)
		}
		replayed, err := isa.ReadTrace(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		streams = []isa.Stream{isa.NewSliceStream(replayed)}
		*ops = len(replayed)
	} else {
		threads = b.Threads
		benchName = b.Name
		if *saveTrace != "" {
			for i, tr := range b.Generate(*seed, *ops) {
				path := fmt.Sprintf("%s.%d.tust", *saveTrace, i)
				f, err := os.Create(path)
				if err != nil {
					fail(err)
				}
				if err := isa.WriteTrace(f, tr); err != nil {
					fail(err)
				}
				if err := f.Close(); err != nil {
					fail(err)
				}
				fmt.Println("wrote", path)
			}
			return
		}
		streams = b.Streams(*seed, *ops)
	}

	cfg := config.Default().WithMechanism(m).WithSB(*sb).WithCores(threads)
	cfg.WOQEntries = *woq
	cfg.WCBCount = *wcbs
	cfg.TUSCoalesce = !*noCoalesce
	if *watchdog != 0 {
		cfg.WatchdogWindow = *watchdog
	}

	sys, err := system.New(cfg, streams)
	if err != nil {
		fail(err)
	}
	sys.WarmupOps = uint64(*ops) * uint64(threads) / 3

	var lifecycle *trace.Tracer
	if *traceOut != "" {
		lifecycle = trace.New(0)
		sys.SetTracer(lifecycle)
	}

	var ck *tso.Checker
	if *check {
		ck = tso.NewChecker(cfg.Cores)
		sys.SetObserver(ck)
	}
	if *auditEvery != 0 {
		audit.Install(sys, *auditEvery)
	}
	if err := sys.Run(); err != nil {
		reportCrash(err)
		stopProf()
		os.Exit(1)
	}
	if ck != nil {
		ck.Finish()
		if err := ck.Err(); err != nil {
			fail(err)
		}
		fmt.Printf("TSO checker: OK (%d publications, %d loads checked)\n", ck.Published, ck.LoadsSeen)
	}

	st := sys.StatsSum()
	model := energy.New(cfg)
	e := model.Energy(st, sys.Cycles)
	committed := sys.TotalCommitted()

	fmt.Printf("benchmark     %s (%d threads)\n", benchName, threads)
	fmt.Printf("mechanism     %s, SB=%d entries (fwd latency %d cycles)\n", m, *sb, cfg.ForwardLatency())
	fmt.Printf("cycles        %d (measured region)\n", sys.Cycles)
	fmt.Printf("committed     %d micro-ops, IPC %.2f/core\n", committed,
		float64(committed)/float64(sys.Cycles)/float64(cfg.Cores))
	fmt.Printf("stalls        SB %.1f%%  ROB %.1f%%  LQ %.1f%% of cycles\n",
		pct(st.Get("stall_sb"), sys.Cycles, cfg.Cores),
		pct(st.Get("stall_rob"), sys.Cycles, cfg.Cores),
		pct(st.Get("stall_lq"), sys.Cycles, cfg.Cores))
	fmt.Printf("L1D           %d reads, %d writes, %.1f%% hit rate\n",
		st.Get("l1d_reads"), st.Get("l1d_writes"),
		100*float64(st.Get("l1d_hits"))/float64(st.Get("l1d_hits")+st.Get("l1d_misses")+1))
	fmt.Printf("memory        %d LLC accesses, %d DRAM accesses\n",
		st.Get("llc_accesses"), st.Get("dram_accesses"))
	if m == config.TUS {
		fmt.Printf("TUS           %d lines published (%d groups), WOQ peak %d, %d cycle merges, %d lex delays, %d relinquishes\n",
			st.Get("tus_lines_made_visible"), st.Get("tus_visible_groups"),
			st.Get("woq_peak_occupancy"), st.Get("tus_cycle_merges"),
			st.Get("tus_lex_delays"), st.Get("tus_lex_relinquishes"))
	}
	fmt.Printf("energy        %.3g units (core %.0f%%, SB %.0f%%, caches %.0f%%, DRAM %.0f%%, leakage %.0f%%)\n",
		e.Total(),
		100*e.Core/e.Total(), 100*(e.SB+e.WOQ+e.WCB+e.TSOB)/e.Total(),
		100*(e.L1D+e.L2+e.LLC)/e.Total(), 100*e.DRAM/e.Total(), 100*e.Leakage/e.Total())
	fmt.Printf("EDP           %.4g\n", model.EDP(st, sys.Cycles))

	if lifecycle != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := lifecycle.WriteChrome(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("trace         %d events -> %s (open in ui.perfetto.dev; %d dropped)\n",
			lifecycle.Len(), *traceOut, lifecycle.Dropped())
	}

	if *dumpStats {
		fmt.Println("\nraw counters:")
		fmt.Print(st.String())
	}
}

// runChaos drives the seeded chaos sweep: the litmus fault matrix
// first, then a benchmark soak under TUS, with cells fanned out over
// the worker pool (the reported failure is deterministic regardless of
// worker count). On failure it writes the repro bundle and prints the
// crash report.
func runChaos(seed, auditEvery uint64, crashOut string, workers int) {
	if auditEvery == 0 {
		auditEvery = 64
	}
	fmt.Printf("chaos sweep: seed %#x, auditing every %d cycles, %d workers\n", seed, auditEvery, workers)
	res, err := harness.ChaosLitmus(seed, 3, 8, auditEvery, workers)
	if err != nil {
		fail(err)
	}
	fmt.Printf("litmus matrix: %d runs", res.Runs)
	if res.Bundle == nil {
		fmt.Println(" — all clean (TSO checker + auditor)")
		bres, err := harness.ChaosBench(seed, 4000, auditEvery, workers)
		if err != nil {
			fail(err)
		}
		res = bres
		fmt.Printf("bench soak: %d runs", res.Runs)
		if res.Bundle == nil {
			fmt.Println(" — all clean")
			return
		}
	}
	fmt.Println()
	if err := res.Bundle.Save(crashOut); err != nil {
		fail(err)
	}
	fmt.Printf("FAILURE — repro bundle written to %s (replay: tusim -repro %s)\n", crashOut, crashOut)
	reportCrash(res.Err)
	if profStop != nil {
		profStop()
	}
	os.Exit(1)
}

// reportCrash prints a structured crash report when err carries one.
func reportCrash(err error) {
	fmt.Fprintln(os.Stderr, "tusim:", err)
	var cr *system.CrashReport
	if errors.As(err, &cr) {
		fmt.Fprintf(os.Stderr, "classification: %s\n", cr.Classification())
		if data, jerr := json.MarshalIndent(cr, "", "  "); jerr == nil {
			fmt.Fprintf(os.Stderr, "crash report:\n%s\n", data)
		}
	}
}

func pct(n, cycles uint64, cores int) float64 {
	return 100 * float64(n) / float64(cycles) / float64(cores)
}

// profStop finalizes any active profiles; fail and the crash exits must
// flush them because os.Exit skips deferred calls.
var profStop func()

func fail(err error) {
	if profStop != nil {
		profStop()
	}
	fmt.Fprintln(os.Stderr, "tusim:", err)
	os.Exit(1)
}
