package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/harness"
	"tusim/internal/isa"
	"tusim/internal/stats"
	"tusim/internal/system"
	"tusim/internal/tso"
	"tusim/internal/workload"
)

// simCell is one simulation the direct-drive workloads run: a benchmark
// proxy under one mechanism and SB size, ops micro-ops per thread.
type simCell struct {
	bench workload.Benchmark
	mech  config.Mechanism
	sb    int
	ops   int
}

func (c simCell) key() string  { return fmt.Sprintf("%s/%v/%d", c.bench.Name, c.mech, c.sb) }
func (c simCell) uops() uint64 { return uint64(c.ops) * uint64(c.bench.Threads) }

func (c simCell) config() *config.Config {
	return cellConfig(harness.Cell{Bench: c.bench, Mech: c.mech, SB: c.sb})
}

// simLists are the cell lists of the three direct-drive workloads.
var simLists = map[string]struct {
	benches []string
	mechs   []config.Mechanism
	sbs     []int
	ops     int
}{
	wlStBurst: {[]string{"502.gcc1", "502.gcc2", "502.gcc3", "502.gcc4", "502.gcc5", "557.xz"}, config.Mechanisms, []int{32, 114}, 150_000},
	wlStMiss:  {[]string{"505.mcf", "tf.matmul", "tf.conv", "tf.embed"}, config.Mechanisms, []int{114}, 50_000},
	wlMtShare: {[]string{"dedup", "ferret", "canneal", "streamcluster"}, []config.Mechanism{config.Baseline, config.CSB, config.TUS}, []int{114}, 12_000},
}

// simCells expands a direct-drive workload's cell list, benchmark-major.
func simCells(name string) ([]simCell, error) {
	l := simLists[name]
	var out []simCell
	for _, bn := range l.benches {
		b, ok := workload.ByName(bn)
		if !ok {
			return nil, fmt.Errorf("no benchmark proxy %q", bn)
		}
		for _, m := range l.mechs {
			for _, sb := range l.sbs {
				out = append(out, simCell{b, m, sb, l.ops})
			}
		}
	}
	return out, nil
}

// traceSet is the generated input of a direct-drive workload: one trace
// per thread per benchmark, shared read-only by the cells that use it.
type traceSet map[string][][]isa.MicroOp

// generate builds the traces the cells need from the seed, one span per
// benchmark, and returns them with a digest of every micro-op.
func generate(tr *tracer, parent int32, cells []simCell, seed int64) (traceSet, string) {
	ts := traceSet{}
	h := uint64(14695981039346656037)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for _, c := range cells {
		if _, done := ts[c.bench.Name]; done {
			continue
		}
		sp := tr.begin("workload.Generate", c.bench.Name, parent, 0)
		traces := c.bench.Generate(seed, c.ops)
		tr.end(sp)
		ts[c.bench.Name] = traces
		for _, t := range traces {
			for _, op := range t {
				mix(op.Addr)
				mix(uint64(op.Kind) | uint64(op.Size)<<8 | uint64(op.Dep1)<<16 | uint64(op.Dep2)<<32)
			}
		}
	}
	return ts, fmt.Sprintf("%016x", h)
}

func (ts traceSet) uops() uint64 {
	var n uint64
	for _, traces := range ts {
		for _, t := range traces {
			n += uint64(len(t))
		}
	}
	return n
}

func (ts traceSet) streams(bench string) []isa.Stream {
	traces := ts[bench]
	out := make([]isa.Stream, len(traces))
	for i, t := range traces {
		out[i] = isa.NewSliceStream(t)
	}
	return out
}

// statsDigest is sha256 over the sorted counter snapshot, shortened to
// 64 bits: enough to notice any counter moving.
func statsDigest(snap map[string]uint64) string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, snap[n])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// cellDigest is what expected.json pins for one cell.
func cellDigest(cycles uint64, snap map[string]uint64) string {
	return fmt.Sprintf("%d/%d/%s", cycles, snap["committed_ops"], statsDigest(snap))
}

// simTotals accumulates the modelled machine's counters over cells.
type simTotals struct {
	counters   map[string]uint64
	cycles     uint64 // summed over cells
	coreCycles uint64 // cycles x cores, the denominator of per-core rates
	// cyclesBy is cycles per cell key, for speed-ups between mechanisms.
	cyclesBy map[string]uint64
}

func newSimTotals() *simTotals {
	return &simTotals{counters: map[string]uint64{}, cyclesBy: map[string]uint64{}}
}

func (t *simTotals) add(key string, cores int, cycles uint64, snap map[string]uint64) {
	for n, v := range snap {
		t.counters[n] += v
	}
	t.cycles += cycles
	t.coreCycles += cycles * uint64(cores)
	t.cyclesBy[key] = cycles
}

// geomeanSpeedupPct is the geometric-mean speed-up of TUS over the
// baseline, both at SB size sb, over the benchmarks that have both
// cells, in percent. It is 0 when no benchmark has both.
func (t *simTotals) geomeanSpeedupPct(benches []string, sb int) float64 {
	var sum float64
	var n int
	for _, b := range benches {
		base := t.cyclesBy[fmt.Sprintf("%s/%v/%d", b, config.Baseline, sb)]
		tus := t.cyclesBy[fmt.Sprintf("%s/%v/%d", b, config.TUS, sb)]
		if base == 0 || tus == 0 {
			continue
		}
		sum += math.Log(float64(base) / float64(tus))
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * (math.Exp(sum/float64(n)) - 1)
}

// report fills in the per-layer metrics that describe the modelled
// design. They are exact: a change that only speeds the simulator up
// must leave every one of them as it was.
func (t *simTotals) report(c *runCtx, benches []string) {
	get := func(n string) float64 { return float64(t.counters[n]) }
	uops := get("committed_ops")
	c.set("sim.cycles", float64(t.cycles))
	c.set("sim.uops", uops)
	if t.coreCycles > 0 {
		cc := float64(t.coreCycles)
		c.set("cpu.ipc", uops/cc)
		c.set("cpu.stall_sb_pct", 100*get("stall_sb")/cc)
		c.set("cpu.stall_rob_pct", 100*get("stall_rob")/cc)
		c.set("cpu.stall_lq_pct", 100*get("stall_lq")/cc)
	}
	if uops > 0 {
		for metric, counter := range map[string]string{
			"cpu.sb_searches_per_kuop":      "sb_searches",
			"cpu.sb_forward_hits_per_kuop":  "sb_forward_hits",
			"memsys.l1d_misses_per_kuop":    "l1d_misses",
			"memsys.l2_misses_per_kuop":     "l2_misses",
			"memsys.llc_accesses_per_kuop":  "llc_accesses",
			"memsys.llc_probes_per_kuop":    "llc_probes",
			"memsys.probe_nacks_per_kuop":   "probe_nacks",
			"memsys.dram_accesses_per_kuop": "dram_accesses",
			"memsys.writebacks_per_kuop":    "writebacks",
			"tus.woq_searches_per_kuop":     "woq_searches",
			"tus.relinquishes_per_kuop":     "relinquishes",
			"tus.lex_delays_per_kuop":       "tus_lex_delays",
			"wcb.searches_per_kuop":         "wcb_searches",
		} {
			c.set(metric, 1000*get(counter)/uops)
		}
	}
	c.set("mech.tus_speedup_pct", t.geomeanSpeedupPct(benches, 114))
}

// simRep is what one repetition over the cell list yields.
type simRep struct {
	repTiming
	mem    memCounters
	totals *simTotals
}

// simulate runs one cell the way harness.Runner.simulate does, minus
// the cache and the checker: build, run with the first third as
// warm-up, merge the statistics, run the energy model.
func simulate(tr *tracer, parent int32, id string, cell simCell, streams []isa.Stream, obs system.Observer) (*system.System, *stats.Set, error) {
	cfg := cell.config()
	sp := tr.begin("system.New", id, parent, 0)
	sys, err := system.New(cfg, streams)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sys.WarmupOps = cell.uops() / 3
	if obs != nil {
		sys.SetObserver(obs)
	}
	sp = tr.begin("system.Run", id, parent, 0)
	err = sys.Run()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("system.StatsSum", id, parent, 0)
	st := sys.StatsSum()
	tr.end(sp)
	sp = tr.begin("energy.Energy", id, parent, 0)
	model := energy.New(cfg)
	e, edp := model.Energy(st, sys.Cycles), model.EDP(st, sys.Cycles)
	tr.end(sp)
	if e.Total() <= 0 || edp <= 0 {
		return nil, nil, fmt.Errorf("energy model returned %v, EDP %v", e.Total(), edp)
	}
	return sys, st, nil
}

// runSimRep simulates every cell once, serially, and checks each output.
func runSimRep(c *runCtx, tr *tracer, rep int, cells []simCell, ts traceSet) *simRep {
	out := &simRep{totals: newSimTotals()}
	m0, t0 := readMem(), time.Now()
	out.span = tr.begin("bench.rep", fmt.Sprintf("%s/%d", c.name, rep), noSpan, 0)
	for _, cell := range cells {
		id := fmt.Sprintf("%s/%d/%s", c.name, rep, cell.key())
		tc := time.Now()
		sp := tr.begin("bench.cell", id, out.span, 0)
		sys, st, err := simulate(tr, sp, id, cell, ts.streams(cell.bench.Name), nil)
		if err != nil {
			c.attempt(1)
			c.fail("cell %s: %v", cell.key(), err)
		} else {
			snap := st.Snapshot()
			out.totals.add(cell.key(), cell.bench.Threads, sys.Cycles, snap)
			c.checkOutput("cells", cell.key(), cellDigest(sys.Cycles, snap))
		}
		tr.end(sp)
		out.cells = append(out.cells, time.Since(tc).Seconds())
	}
	tr.end(out.span)
	out.wall = time.Since(t0)
	out.mem = readMem().sub(m0)
	return out
}

// runSim is st_burst, st_miss and mt_share: system.New + Run driven
// directly, one cell at a time.
func runSim(c *runCtx) error {
	cells, err := simCells(c.name)
	if err != nil {
		return err
	}
	var ts traceSet
	setupMark := c.tr.mark()
	err = c.timeSetup(func(int) error {
		var digest string
		ts, digest = generate(c.tr, noSpan, cells, c.seed)
		c.checkOutput("inputs", "traces", digest)
		return nil
	})
	if err != nil {
		return err
	}
	setupEnd := c.tr.mark()
	var uops uint64
	for _, cell := range cells {
		uops += cell.uops()
	}

	cold, plain, traced := repeat(c, func(tr *tracer, n int) *simRep { return runSimRep(c, tr, n, cells, ts) })
	if !c.traced {
		reportReps(c, cold, plain, float64(uops))
		return nil
	}

	// Per-layer account. Exact counts come from an untraced repetition,
	// host times from the traced ones.
	c.set("bench.peak_rss_mb", peakRSSMiB())
	ref := plain[0]
	ref.totals.report(c, simLists[c.name].benches)
	kuops := float64(uops) / 1000
	c.set("system.allocs_per_kuop", float64(ref.mem.mallocs)/kuops)
	c.set("system.alloc_bytes_per_kuop", float64(ref.mem.bytes)/kuops)
	c.set("system.gc_cycles", float64(ref.mem.gcs))
	c.set("system.gc_pause_ms", float64(ref.mem.pauseNs)/1e6)

	setupSelf := selfByName(c.tr.between(setupMark, setupEnd), setupMark)
	c.set("workload.generate_ns_per_uop", float64(setupSelf["workload.Generate"])/float64(c.setupPasses)/float64(ts.uops()))

	var newUs, runNsUop, runNsCyc, share, statUs, energyUs []float64
	n := float64(len(cells))
	for _, r := range traced {
		c.account(r.span, r.wall)
		self := selfByName(c.tr.tree(r.span))
		newUs = append(newUs, float64(self["system.New"])/1e3/n)
		runNsUop = append(runNsUop, float64(self["system.Run"])/float64(uops))
		runNsCyc = append(runNsCyc, float64(self["system.Run"])/float64(r.totals.cycles))
		share = append(share, float64(self["system.Run"])/float64(r.wall))
		statUs = append(statUs, float64(self["system.StatsSum"])/1e3/n)
		energyUs = append(energyUs, float64(self["energy.Energy"])/1e3/n)
	}
	c.setSummary("system.new_us_per_cell", newUs)
	c.setSummary("system.run_ns_per_uop", runNsUop)
	c.setSummary("system.run_ns_per_cycle", runNsCyc)
	c.setSummary("system.run_share", share)
	c.setSummary("system.statssum_us_per_cell", statUs)
	c.setSummary("energy.model_us_per_cell", energyUs)
	reportTraceOverhead(c, plain, traced)

	c.guard(func() { probeChecker(c, cells, ts) })
	runProbes(c)
	return nil
}

// probeChecker prices the TSO checker: one TUS cell per benchmark of the
// list at the largest SB size, run with and without tso.NewChecker
// attached through SetObserver; the difference per simulated micro-op.
func probeChecker(c *runCtx, cells []simCell, ts traceSet) {
	var with, without time.Duration
	var uops uint64
	root := c.tr.begin("bench.probe", c.name+"/tso", noSpan, 0)
	defer c.tr.end(root)
	for _, cell := range cells {
		l := simLists[c.name]
		if cell.mech != config.TUS || cell.sb != l.sbs[len(l.sbs)-1] {
			continue
		}
		id := c.name + "/tso/" + cell.key()
		t0 := time.Now()
		if _, _, err := simulate(nil, noSpan, id, cell, ts.streams(cell.bench.Name), nil); err != nil {
			c.attempt(1)
			c.fail("checker probe %s: %v", cell.key(), err)
			continue
		}
		without += time.Since(t0)
		ck := tso.NewChecker(cell.bench.Threads)
		sp := c.tr.begin("tso.Checker", id, root, 0)
		t0 = time.Now()
		_, _, err := simulate(nil, noSpan, id, cell, ts.streams(cell.bench.Name), ck)
		if err == nil {
			ck.Finish()
			err = ck.Err()
		}
		with += time.Since(t0)
		c.tr.end(sp)
		c.attempt(1)
		if err != nil {
			c.fail("checker probe %s: %v", cell.key(), err)
		}
		uops += cell.uops()
	}
	if uops > 0 {
		c.set("tso.check_ns_per_uop", float64(with-without)/float64(uops))
	}
}

// cellListDigest hashes the identity of every workload's cell list: the
// names, mechanisms, SB sizes and micro-op counts the numbers depend on.
func cellListDigest() (string, error) {
	var b strings.Builder
	for _, name := range []string{wlStBurst, wlStMiss, wlMtShare} {
		cells, err := simCells(name)
		if err != nil {
			return "", err
		}
		for _, c := range cells {
			fmt.Fprintf(&b, "%s %s ops=%d threads=%d\n", name, c.key(), c.ops, c.bench.Threads)
		}
	}
	for _, l := range []string{figMatrixCellList(), serveMixCellList(), litmusCellList()} {
		b.WriteString(l)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}
