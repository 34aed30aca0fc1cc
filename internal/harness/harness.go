// Package harness drives the paper's evaluation: it runs benchmark
// proxies under every store-handling mechanism and SB size, collects
// cycles/stats/energy, and regenerates each figure of Sec. VI as a
// text table (see DESIGN.md's experiment index).
//
// Every figure is an aggregate over independent (benchmark, mechanism,
// SB size) simulation cells, so the Runner fans cells out to a
// Workers-bounded goroutine pool and merges results back in
// deterministic cell order: each cell simulates a private system with
// private stats, so figure output is byte-identical to the serial path
// regardless of worker count (the golden + determinism tests pin this).
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/parmap"
	"tusim/internal/stats"
	"tusim/internal/supervise"
	"tusim/internal/system"
	"tusim/internal/trace"
	"tusim/internal/tso"
	"tusim/internal/workload"
)

// Result captures one simulation run.
type Result struct {
	Bench  string
	Mech   config.Mechanism
	SB     int
	Cores  int
	Cycles uint64
	Stats  *stats.Set
	Energy energy.Breakdown
	EDP    float64
}

// SBStallPct is the fraction of cycles dispatch stalled on a full SB
// (Fig. 9's metric), averaged over cores.
func (r Result) SBStallPct() float64 {
	return 100 * float64(r.Stats.Get("stall_sb")) / float64(r.Cycles) / float64(r.Cores)
}

// Cell identifies one independent simulation of the evaluation matrix.
type Cell struct {
	Bench workload.Benchmark
	Mech  config.Mechanism
	SB    int
}

// Runner executes and memoizes simulation runs.
type Runner struct {
	// Ops is the trace length per thread.
	Ops int
	// ParallelOps is the per-thread trace length for 16-thread runs.
	ParallelOps int
	// Seed drives the workload generators.
	Seed int64
	// Check attaches the TSO checker to every run (slower).
	Check bool
	// Verbose prints each run to stderr as it completes.
	Verbose bool
	// Workers bounds concurrent cell simulations: 0 picks
	// runtime.NumCPU(), 1 is the serial path. Results are identical at
	// every setting; Workers only changes wall-clock time.
	Workers int
	// Cache, when non-nil, persists results across processes keyed by
	// the content hash of (harness version, config, workload identity).
	Cache *DiskCache
	// OnTrace, when set, attaches a store-lifecycle tracer to every
	// freshly simulated cell and receives it after the run completes
	// (key = "bench/mech/sb"); cells served from a cache never simulated,
	// so they deliver no trace. Tracing is observational only: every
	// result and figure is byte-identical with it on or off (the golden
	// identity test pins this). Called from worker goroutines; the
	// callback must be safe for concurrent use when Workers > 1.
	OnTrace func(key string, t *trace.Tracer)
	// OnCellDone, when set, observes every cell completion exactly once
	// per process: it fires on the singleflight owner's path after the
	// cell is computed (freshly simulated, loaded from the disk cache, or
	// failed), never again for later memoized Run calls on the same key.
	// cached reports a disk-cache hit; d is the wall-clock the scheduler
	// waited for the cell. The callback runs on worker goroutines and
	// must be safe for concurrent use when Workers > 1. tusd uses it for
	// per-cell job progress and the cell-latency metrics histogram.
	OnCellDone func(key string, cached bool, d time.Duration, err error)
	// Supervisor, when non-nil, runs every simulation inside the cell
	// supervision layer: one attempt under panic capture and a fixed
	// hang guard (a deadline on the cell's context), quarantined on its
	// first failure. A quarantined cell surfaces as a
	// *supervise.Quarantined error, which the figure builders degrade
	// into a "degraded" report section instead of failing the run. Nil
	// keeps the legacy behavior (any cell failure is fatal to its
	// figure). Healthy runs are byte-identical either way.
	Supervisor *supervise.Supervisor

	mu    sync.Mutex
	cells map[string]*cell

	// interned is the cross-cell trace table: cells that share a
	// (bench, seed, ops) workload share one immutable generated trace
	// instead of each regenerating it (see intern.go).
	interned interner

	// Cell accounting behind CacheStats.
	cellsRun   atomic.Int64
	cellsFromC atomic.Int64
	// cacheCorrupt counts disk-cache entries that existed but failed to
	// decode or validate (each was resimulated); corruptOnce gates the
	// single per-run warning. cacheWriteFailed and writeFailOnce do the
	// same for simulated cells the cache failed to store.
	cacheCorrupt     atomic.Int64
	corruptOnce      sync.Once
	cacheWriteFailed atomic.Int64
	writeFailOnce    sync.Once

	// testHookSim, when set (tests only), runs before each simulation
	// with the attempt's context and the cell key; a non-nil return
	// poisons the attempt with that error, letting tests inject failures
	// and stalls without touching the simulator.
	testHookSim func(ctx context.Context, key string) error
}

// DegradedCell names one quarantined cell a figure had to skip, and
// why. The JSON report and a tusd job list these so a partial result is
// explicit, never silent.
type DegradedCell struct {
	Figure string `json:"figure"`
	Cell   string `json:"cell"`
	Reason string `json:"reason"`
}

// cell is a singleflight slot: the first goroutine to claim a key
// simulates it; everyone else blocks on done and shares the result.
type cell struct {
	done    chan struct{}
	res     Result
	err     error
	stopped bool // the owner was stopped and left the slot
}

// NewRunner returns a runner with the default experiment scale.
func NewRunner() *Runner {
	return &Runner{Ops: 150_000, ParallelOps: 25_000, Seed: 1}
}

// NewQuickRunner returns a runner sized for tests.
func NewQuickRunner() *Runner {
	return &Runner{Ops: 12_000, ParallelOps: 1_500, Seed: 1}
}

func (r *Runner) ops(b workload.Benchmark) int {
	if b.Threads > 1 {
		return r.ParallelOps
	}
	return r.Ops
}

// workers resolves the effective pool width.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.NumCPU()
}

// config is the machine a registry cell simulates: the default machine
// under the cell's mechanism, SB size and core count.
func (c Cell) config() *config.Config {
	return config.Default().WithMechanism(c.Mech).WithSB(c.SB).WithCores(c.Bench.Threads)
}

// Run simulates benchmark b under mechanism m with the given SB size.
// It is safe for concurrent use: identical cells are de-duplicated so
// exactly one simulation runs per key per process.
func (r *Runner) Run(b workload.Benchmark, m config.Mechanism, sbSize int) (Result, error) {
	c := Cell{b, m, sbSize}
	return r.run(context.Background(), b, CellKey(c), c.config)
}

// run is Run for any machine configuration (the DSE sweep mutates it):
// key names the singleflight slot, the supervised cell and its journaled
// quarantine; the disk cache is keyed by the content of the
// configuration, not by key. mkcfg is called only by the slot's owner,
// so a memoized read builds no config.
// ctx stops this caller only: a waiter returns at once, and an owner's
// cell stops uncached and unreported, leaving its slot to a live waiter.
func (r *Runner) run(ctx context.Context, b workload.Benchmark, key string, mkcfg func() *config.Config) (Result, error) {
	for {
		r.mu.Lock()
		if r.cells == nil {
			r.cells = make(map[string]*cell)
		}
		c, inflight := r.cells[key]
		if !inflight {
			c = &cell{done: make(chan struct{})}
			r.cells[key] = c
		}
		r.mu.Unlock()
		if inflight {
			select {
			case <-c.done:
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
			if c.stopped {
				continue
			}
			return c.res, c.err
		}
		start := time.Now()
		var cached bool
		c.res, cached, c.err = r.compute(ctx, b, mkcfg(), key)
		if c.err != nil && ctx.Err() != nil && !isQuarantined(c.err) {
			r.mu.Lock()
			delete(r.cells, key)
			r.mu.Unlock()
			c.stopped = true
			close(c.done)
			return Result{}, ctx.Err()
		}
		if r.OnCellDone != nil {
			r.OnCellDone(key, cached, time.Since(start), c.err)
		}
		close(c.done)
		return c.res, c.err
	}
}

// compute performs the actual simulation (or persistent-cache load)
// behind Run's singleflight gate, routing fresh simulations through the
// supervisor when one is attached. cached reports whether the result
// was served from the disk cache instead of simulated.
func (r *Runner) compute(ctx context.Context, b workload.Benchmark, cfg *config.Config, key string) (_ Result, cached bool, _ error) {
	if !b.Valid() {
		return Result{}, false, fmt.Errorf("harness: %s: unknown or zero-value benchmark", key)
	}
	ckey := r.contentKey(b, cfg)
	if r.Cache != nil {
		res, st := r.Cache.Get(ckey, b, cfg.Mechanism, cfg.SBEntries)
		switch st {
		case CacheHit:
			r.cellsFromC.Add(1)
			if r.Verbose {
				fmt.Fprintf(os.Stderr, "  hit %-28s cycles=%-10d (cache)\n", key, res.Cycles)
			}
			return res, true, nil
		case CacheCorrupt:
			r.cacheCorrupt.Add(1)
			r.corruptOnce.Do(func() {
				fmt.Fprintf(os.Stderr, "harness: warning: corrupt result-cache entry for %s (resimulating; further corruption counted silently in cache_corrupt)\n", key)
			})
		}
	}
	var out simOutcome
	attempt := func(ctx context.Context) (err error) {
		out, err = r.simulate(ctx, b, cfg, key)
		return err
	}
	var err error
	if r.Supervisor == nil {
		err = attempt(ctx)
	} else {
		// A cell the hang guard stops fails with guard, not ctx.Err().
		limit := r.Supervisor.Deadline()
		guard := &supervise.DeadlineError{Key: key, Limit: limit}
		err = r.Supervisor.Do(key, "", func() error {
			actx, cancel := context.WithTimeoutCause(ctx, limit, guard)
			defer cancel()
			if err := attempt(actx); err == nil || actx.Err() == nil {
				return err
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return guard
		})
	}
	if err != nil {
		return Result{}, false, err
	}
	if r.Cache != nil {
		if err := r.Cache.Put(ckey, out.res); err != nil {
			r.cacheWriteFailed.Add(1)
			r.writeFailOnce.Do(func() {
				fmt.Fprintf(os.Stderr, "harness: warning: result-cache write failed for %s: %v (a later run resimulates it; further failures counted silently in cache_write_failed)\n", key, err)
			})
		}
	}
	r.publish(key, out)
	return out.res, false, nil
}

// simOutcome is one finished simulation attempt: the result plus what
// publish accounts for it.
type simOutcome struct {
	res   Result
	trace *trace.Tracer
}

// simulate runs one cell for real (no cache probe). It has no side
// effect outside its own system: compute caches and publishes it once
// the attempt has succeeded.
func (r *Runner) simulate(ctx context.Context, b workload.Benchmark, cfg *config.Config, key string) (simOutcome, error) {
	m, sbSize := cfg.Mechanism, cfg.SBEntries
	if r.testHookSim != nil {
		if err := r.testHookSim(ctx, key); err != nil {
			return simOutcome{}, err
		}
	}
	sys, err := system.New(cfg, r.interned.streams(b, r.Seed, r.ops(b)))
	if err != nil {
		return simOutcome{}, fmt.Errorf("harness: %s: %w", key, err)
	}
	// Discard the first third as warm-up (the paper warms 200M of each
	// 2B-instruction simulation point; our warm workloads put their
	// footprint-touch prologue inside this window).
	sys.WarmupOps = uint64(r.ops(b)) * uint64(b.Threads) / 3
	sys.SetContext(ctx)
	var tr *trace.Tracer
	if r.OnTrace != nil {
		tr = trace.New(0)
		sys.SetTracer(tr)
	}
	var ck *tso.Checker
	if r.Check {
		ck = tso.NewChecker(cfg.Cores)
		sys.SetObserver(ck)
	}
	if err := sys.Run(); err != nil {
		return simOutcome{}, fmt.Errorf("harness: %s: %w", key, err)
	}
	if ck != nil {
		ck.Finish()
		if err := ck.Err(); err != nil {
			return simOutcome{}, fmt.Errorf("harness: %s: %w", key, err)
		}
	}
	st := sys.StatsSum()
	model := energy.New(cfg)
	res := Result{
		Bench:  b.Name,
		Mech:   m,
		SB:     sbSize,
		Cores:  cfg.Cores,
		Cycles: sys.Cycles,
		Stats:  st,
		Energy: model.Energy(st, sys.Cycles),
		EDP:    model.EDP(st, sys.Cycles),
	}
	return simOutcome{res: res, trace: tr}, nil
}

// publish accounts for and announces one freshly simulated cell, exactly
// once per cell: the run counter, the trace callback and the -v line.
func (r *Runner) publish(key string, out simOutcome) {
	r.cellsRun.Add(1)
	if out.trace != nil {
		r.OnTrace(key, out.trace)
	}
	if r.Verbose {
		fmt.Fprintf(os.Stderr, "  ran %-28s cycles=%-10d sbstall=%5.1f%%\n", key, out.res.Cycles, out.res.SBStallPct())
	}
}

// Prefetch claims the given cells through the worker pool, filling the
// in-process cache so the assembly that follows reads every cell back
// instantly and in deterministic order — which is what makes the
// parallel path byte-identical to the serial one. It is the only place
// a study's cells are claimed (see Build).
//
// ctx stops the claiming and this caller's running cells: a simulation
// looks at it every 1,024 cycles, and a cell shared with another caller
// through the singleflight is simulated again by that caller (see run).
// A canceled Prefetch returns ctx.Err() within milliseconds. Otherwise
// the error is the first failing cell in list order (deterministic at any
// worker count). Quarantined cells are not failures: the supervisor has
// already contained them and the assemblies degrade around them, so the
// prefetch keeps filling every other cell.
func (r *Runner) Prefetch(ctx context.Context, cells []Cell) error {
	_, err := parmap.Parmap(ctx, r.workers(), len(cells), func(i int) error {
		c := cells[i]
		_, err := r.run(ctx, c.Bench, CellKey(c), c.config)
		if isQuarantined(err) {
			return nil
		}
		return err
	})
	return err
}

// isQuarantined reports whether err is a supervisor quarantine. A nil
// err returns before q is declared: &q escapes into errors.As, so
// declaring it would allocate on every memoized read.
func isQuarantined(err error) bool {
	if err == nil {
		return false
	}
	var q *supervise.Quarantined
	return errors.As(err, &q)
}

// NewSupervisor builds the harness's standard supervision policy: a
// panic becomes a CrashReport, and any failed cell quarantines on its
// first failure. timeout is the fixed per-cell hang guard (zero selects
// config.DefaultCellTimeout).
func NewSupervisor(timeout time.Duration) *supervise.Supervisor {
	if timeout <= 0 {
		timeout = config.DefaultCellTimeout
	}
	return supervise.New(supervise.Policy{
		Deadline: timeout,
		WrapPanic: func(key string, v any, stack []byte) error {
			return fmt.Errorf("harness: %s: %w", key, system.PanicReport(v, stack))
		},
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
}

// Degraded lists the cells among keys that sit in the supervisor's
// quarantine, under the product name, in keys' order: exactly the cells
// that product had to skip. Nil without a supervisor or a quarantine.
func (r *Runner) Degraded(name string, keys []string) []DegradedCell {
	if r.Supervisor == nil {
		return nil
	}
	quarantined := r.Supervisor.QuarantinedCells()
	var out []DegradedCell
	for _, k := range keys {
		if reason, bad := quarantined[k]; bad {
			out = append(out, DegradedCell{Figure: name, Cell: k, Reason: reason})
		}
	}
	return out
}

// PrintQuarantined writes the supervisor's quarantine list, the cells
// every product skipped, to w sorted by cell: a "<who>: N cells degraded
// by quarantine:" line, then "  cell: reason" per cell. An empty list
// (or no supervisor) writes nothing.
func (r *Runner) PrintQuarantined(w io.Writer, who string) {
	if r.Supervisor == nil {
		return
	}
	q := r.Supervisor.QuarantinedCells()
	if len(q) == 0 {
		return
	}
	keys := make([]string, 0, len(q))
	for k := range q {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: %d cells degraded by quarantine:\n", who, len(q))
	for _, k := range keys {
		fmt.Fprintf(w, "  %s: %s\n", k, q[k])
	}
}

// runCell is Run for an assembly: a quarantined cell is reported as
// ok=false with a nil error, so the assembly skips it (the supervisor's
// list is the record of the skip); any other failure propagates.
func (r *Runner) runCell(b workload.Benchmark, m config.Mechanism, sb int) (Result, bool, error) {
	res, err := r.Run(b, m, sb)
	if isQuarantined(err) {
		return Result{}, false, nil
	}
	return res, err == nil, err
}

// Speedup returns base.Cycles / res.Cycles.
func Speedup(res, base Result) float64 { return float64(base.Cycles) / float64(res.Cycles) }

// Geomean computes the geometric mean of xs. It fails loudly instead of
// silently laundering bad data: an empty slice, a NaN/Inf, or a
// non-positive element (whose log is undefined) all return an error so
// a perf refactor that perturbs figure inputs cannot hide inside an
// aggregate.
func Geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("harness: geomean of empty input")
	}
	s := 0.0
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return 0, fmt.Errorf("harness: geomean input %d is %v (want finite > 0)", i, x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// SCurve returns speedups sorted ascending (Figs. 10/13 left panels).
// NaN elements have no defined sort position, so any NaN input is an
// error rather than a silently mis-sorted curve.
func SCurve(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	copy(out, xs)
	for i, x := range out {
		if math.IsNaN(x) {
			return nil, fmt.Errorf("harness: s-curve input %d is NaN", i)
		}
	}
	sort.Float64s(out)
	return out, nil
}

// SortByBaselineStalls returns benchs sorted by baseline SB-stall
// fraction (descending) at the given SB size — the paper sorts its
// per-benchmark bars this way. It reads the baseline cells through Run,
// so inside an assembly they are already memoized. An empty input
// returns an empty, non-nil slice; an invalid benchmark surfaces Run's
// error.
func (r *Runner) SortByBaselineStalls(benchs []workload.Benchmark, sb int) ([]workload.Benchmark, error) {
	stalls := make(map[string]float64, len(benchs))
	for _, b := range benchs {
		res, err := r.Run(b, config.Baseline, sb)
		switch {
		case err == nil:
			stalls[b.Name] = res.SBStallPct()
		case isQuarantined(err):
			// A quarantined baseline sorts last; the assembly skips its
			// cells.
			stalls[b.Name] = -1
		default:
			return nil, err
		}
	}
	out := append([]workload.Benchmark{}, benchs...)
	sort.SliceStable(out, func(i, j int) bool { return stalls[out[i].Name] > stalls[out[j].Name] })
	return out, nil
}
