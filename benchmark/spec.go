package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// runSeconds is how long one run measures when -seconds is not given.
const runSeconds = 15

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// Workload names are permanent: later issues refer to them.
const (
	wlStBurst = "st_burst"
	wlStMiss  = "st_miss"
	wlMtShare = "mt_share"
	wlFig     = "fig_matrix"
	wlServe   = "serve_mix"
	wlLitmus  = "litmus_check"
)

var workloadSpecs = []workloadSpec{
	{wlStBurst, "Store-burst SB-bound 1-core cells: cpu dispatch/commit/SB drain, wcb, tus/mech and the event wheel do the work; few L2 misses, so it bypasses miss-path changes."},
	{wlStMiss, "Pointer-chase and streaming 1-core cells with many L2 misses and allocations per uop: memsys MSHR/directory/DRAM closures and tus retry paths dominate."},
	{wlMtShare, "16-core PARSEC cells: 16x events per cycle, directory fan-out and Inv/Fwd/NACK traffic; uses memsys for coherence probes, not capacity misses."},
	{wlFig, "The CLI traffic: figures 8-15 at -quick scale through harness.Runner with a worker pool, supervisor and disk cache, cold then warm; the 300-cell mix sets the number."},
	{wlServe, "tusd in-process behind loopback TCP: cold figure sweep, then a closed loop of W clients on the memoized path where server, JSON and net/http are the cost."},
	{wlLitmus, "modelcheck.Check over the litmus suite x {base,CSB,TUS}: thousands of tiny systems, so system build cost and the oracle matter, not steady state."},
}

func bound(x float64) *float64 { return &x }

// End-to-end metrics. Every run of every workload reports all of them;
// what the workload's unit of work and operation are is in README.md.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"cold_s", "s", "lower", bound(0.25)},
	{"warm_ms", "ms", "lower", bound(0.25)},
	{"work_per_s", "1/s", "higher", bound(0.25)},
}

// Per-layer metrics, grouped by the module they belong to. A metric a
// workload does not exercise reads 0 on that workload.
var perLayerSpecs = []metricSpec{
	{"workload.generate_ns_per_uop", "ns", "lower", nil},

	{"system.new_us_per_cell", "us", "lower", nil},
	{"system.run_ns_per_uop", "ns", "lower", nil},
	{"system.run_ns_per_cycle", "ns", "lower", nil},
	{"system.run_share", "ratio", "higher", nil},
	{"system.statssum_us_per_cell", "us", "lower", nil},
	{"system.allocs_per_kuop", "count", "lower", nil},
	{"system.alloc_bytes_per_kuop", "B", "lower", nil},
	{"system.gc_cycles", "count", "lower", nil},
	{"system.gc_pause_ms", "ms", "lower", nil},

	{"sim.cycles", "count", "lower", nil},
	{"sim.uops", "count", "higher", nil},
	{"cpu.ipc", "ratio", "higher", nil},
	{"cpu.stall_sb_pct", "%", "lower", nil},
	{"cpu.stall_rob_pct", "%", "lower", nil},
	{"cpu.stall_lq_pct", "%", "lower", nil},
	{"cpu.sb_searches_per_kuop", "count", "lower", nil},
	{"cpu.sb_forward_hits_per_kuop", "count", "higher", nil},
	{"memsys.l1d_misses_per_kuop", "count", "lower", nil},
	{"memsys.l2_misses_per_kuop", "count", "lower", nil},
	{"memsys.llc_accesses_per_kuop", "count", "lower", nil},
	{"memsys.llc_probes_per_kuop", "count", "lower", nil},
	{"memsys.probe_nacks_per_kuop", "count", "lower", nil},
	{"memsys.dram_accesses_per_kuop", "count", "lower", nil},
	{"memsys.writebacks_per_kuop", "count", "lower", nil},
	{"tus.woq_searches_per_kuop", "count", "lower", nil},
	{"tus.relinquishes_per_kuop", "count", "lower", nil},
	{"tus.lex_delays_per_kuop", "count", "lower", nil},
	{"wcb.searches_per_kuop", "count", "lower", nil},
	{"mech.tus_speedup_pct", "%", "higher", nil},

	{"event.near_ns_per_op", "ns", "lower", nil},
	{"event.due_now_ns_per_op", "ns", "lower", nil},
	{"event.far_ns_per_op", "ns", "lower", nil},
	{"lmap.get_ns", "ns", "lower", nil},
	{"lmap.churn_ns", "ns", "lower", nil},
	{"memsys.l1_load_hit_ns", "ns", "lower", nil},
	{"memsys.l1_store_hit_ns", "ns", "lower", nil},
	{"memsys.load_miss_ns", "ns", "lower", nil},
	{"memsys.load_miss_allocs", "count", "lower", nil},
	{"memsys.dir_probe_ns", "ns", "lower", nil},
	{"memsys.dir_probe_allocs", "count", "lower", nil},

	{"tso.check_ns_per_uop", "ns", "lower", nil},
	{"energy.model_us_per_cell", "us", "lower", nil},

	{"harness.prefetch_s", "s", "lower", nil},
	{"harness.render_ms", "ms", "lower", nil},
	{"harness.cell_ms_p50", "ms", "lower", nil},
	{"harness.cell_ms_max", "ms", "lower", nil},
	{"harness.pool_util", "ratio", "higher", nil},
	{"harness.key_us_per_cell", "us", "lower", nil},
	{"harness.cache_put_us", "us", "lower", nil},
	{"harness.cache_get_us", "us", "lower", nil},
	{"harness.sim_cycles_per_s", "1/s", "higher", nil},
	{"model.tus_speedup_st114_pct", "%", "higher", nil},
	{"model.tus_speedup_err_pp", "pp", "lower", nil},

	{"supervise.do_overhead_us", "us", "lower", nil},

	{"server.submit_us", "us", "lower", nil},
	{"server.http_overhead_us", "us", "lower", nil},
	{"server.cells_job_ms", "ms", "lower", nil},
	{"server.hist_job_ms", "ms", "lower", nil},
	{"server.metrics_ms", "ms", "lower", nil},
	{"server.warm_p99_ms", "ms", "lower", nil},
	{"server.warm_p999_ms", "ms", "lower", nil},
	{"server.cold_fig8_s", "s", "lower", nil},

	{"modelcheck.enumerate_us_per_state", "us", "lower", nil},
	{"modelcheck.explore_us_per_run", "us", "lower", nil},
	{"modelcheck.oracle_states", "count", "lower", nil},
	{"modelcheck.sched_runs", "count", "lower", nil},
	{"modelcheck.pruned", "count", "higher", nil},

	{"bench.trace_overhead_pct", "%", "lower", nil},
	{"bench.cpu_util", "ratio", "higher", nil},
	{"bench.peak_rss_mb", "MiB", "lower", nil},
}

// theManifest is what BENCHMARK.json must say.
func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
}

// encode renders the manifest as the bytes of BENCHMARK.json.
func (m manifest) encode() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // the manifest holds only strings, ints and floats
	}
	return buf.Bytes()
}

var (
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validate checks the manifest against the limits the benchmark
// contract sets, so a bad edit fails a test and not a driver run.
func (m manifest) validate() error {
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d parts, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 {
			return fmt.Errorf("command part %q is longer than 200", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || p[0] == '/' {
			return fmt.Errorf("bad path %q", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d out of 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(s string) error {
		if !validName(s) {
			return fmt.Errorf("bad name %q", s)
		}
		if seen[s] {
			return fmt.Errorf("name %q used twice", s)
		}
		seen[s] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters, is %d", w.Name, len(w.Why))
		}
	}
	metric := func(s metricSpec, endToEnd bool) error {
		if err := name(s.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(s.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", s.Name, s.Better)
		}
		switch {
		case endToEnd && (s.Bound == nil || *s.Bound <= 0 || *s.Bound > 0.25):
			return fmt.Errorf("metric %s: end-to-end bound must be in (0,0.25]", s.Name)
		case !endToEnd && s.Bound != nil:
			return fmt.Errorf("metric %s: per-layer metrics have no bound", s.Name)
		}
		return nil
	}
	setup := false
	for _, s := range m.EndToEnd {
		if err := metric(s, true); err != nil {
			return err
		}
		if s.Name == "setup_s" {
			setup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("no setup_s metric with unit s, better lower")
	}
	for _, s := range m.PerLayer {
		if err := metric(s, false); err != nil {
			return err
		}
	}
	return nil
}
