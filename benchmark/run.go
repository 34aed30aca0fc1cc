package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// value is one reported number. N, Q1 and Q3 are set when the value is
// a median over repetitions.
type value struct {
	V    float64 `json:"value"`
	Unit string  `json:"unit"`
	N    int     `json:"n,omitempty"`
	Q1   float64 `json:"q1,omitempty"`
	Q3   float64 `json:"q3,omitempty"`
}

// outcome is everything one run of one workload reports.
type outcome struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Pinned says the outputs were compared with expected.json; other
	// seeds are checked for repetition-to-repetition determinism only.
	Pinned bool `json:"pinned"`
	// Problems holds the first few failed checks, for the reader.
	Problems []string         `json:"problems,omitempty"`
	Metrics  map[string]value `json:"metrics"`
	// Digests are the outputs in the form expected.json pins (-update).
	Digests *pinSet `json:"digests,omitempty"`
	// WallS is the whole run, set-up to last check.
	WallS float64 `json:"wall_s"`
	// Layers is the traced run's account: self time per layer, summed
	// over the traced repetitions, beside their total wall time. On the
	// serial workloads the layers add up to the wall time exactly; under
	// a worker pool they add up to the workers' busy time.
	Layers     map[string]float64 `json:"layer_self_s,omitempty"`
	TracedWall float64            `json:"traced_wall_s,omitempty"`
}

// runCtx is what a workload needs to know about the run it is part of.
type runCtx struct {
	name    string
	seed    int64
	seconds float64 // measuring budget, cold pass included
	reps    int     // >0: exactly this many timed repetitions, budget ignored
	traced  bool
	tr      *tracer // non-nil only in a traced run
	workers int     // W: GOMAXPROCS and the most goroutines generating load
	tmp     string  // scratch directory inside the checkout
	update  bool    // collect digests for expected.json instead of comparing
	pins    *pinSet // expected outputs for this seed and workload, or nil

	out         *outcome
	setupPasses int // how many set-up passes timeSetup made
}

const maxProblems = 8

// attempt counts one operation whose output was checked.
func (c *runCtx) attempt(n int) { c.out.Attempted += n }

// fail counts one failed operation and keeps the first few reasons.
func (c *runCtx) fail(format string, args ...any) {
	c.out.Failed++
	if len(c.out.Problems) < maxProblems {
		c.out.Problems = append(c.out.Problems, fmt.Sprintf(format, args...))
	}
}

// set reports a metric measured once in the run.
func (c *runCtx) set(name string, v float64) {
	c.out.Metrics[name] = value{V: v}
}

// setSummary reports a metric as the median of xs with its quartiles.
func (c *runCtx) setSummary(name string, xs []float64) {
	s := summarize(xs)
	c.out.Metrics[name] = value{V: s.Median, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// repTiming is what the repetition loop keeps of one repetition over a
// list of cells.
type repTiming struct {
	wall  time.Duration
	cells []float64 // each cell's wall seconds, in the order they ran
	span  int32     // the repetition's root span, in a traced repetition
}

func (t *repTiming) timing() *repTiming { return t }

// timed is a repetition's result: a repTiming plus what the workload adds.
type timed interface{ timing() *repTiming }

// repeat makes a workload's repetitions: one cold, on the process's
// fresh heap, then timed ones while the budget lasts (at least two). In
// a traced run untraced and traced repetitions alternate, so that the
// two kinds see the same machine.
func repeat[R timed](c *runCtx, run func(tr *tracer, n int) R) (cold R, plain, traced []R) {
	start := time.Now()
	cold = run(nil, 0)
	last := cold.timing().wall
	for c.more(len(plain)+len(traced), 2, start, last) {
		n := len(plain) + len(traced) + 1
		if c.traced && len(traced) < len(plain) {
			traced = append(traced, run(c.tr, n))
			last = traced[len(traced)-1].timing().wall
		} else {
			plain = append(plain, run(nil, n))
			last = plain[len(plain)-1].timing().wall
		}
	}
	return cold, plain, traced
}

// walls lists the repetitions' wall seconds.
func walls[R timed](reps []R) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.timing().wall.Seconds()
	}
	return xs
}

// reportReps fills in the end-to-end metrics of a repetition-based
// workload: cold_s is the cold repetition, warm_ms the cell-wise median
// of the timed ones, work_per_s the work of one repetition over that.
func reportReps[R timed](c *runCtx, cold R, plain []R, work float64) {
	perCell := make([][]float64, len(plain))
	for i, r := range plain {
		perCell[i] = r.timing().cells
	}
	s := cellwise(perCell)
	c.set("cold_s", cold.timing().wall.Seconds())
	c.out.Metrics["warm_ms"] = value{V: 1e3 * s.Median, N: s.N, Q1: 1e3 * s.Q1, Q3: 1e3 * s.Q3}
	c.out.Metrics["work_per_s"] = value{V: work / s.Median, N: s.N, Q1: work / s.Q3, Q3: work / s.Q1}
}

// reportTraceOverhead compares the traced repetitions with the untraced
// ones of the same run.
func reportTraceOverhead[R timed](c *runCtx, plain, traced []R) {
	u, t := median(walls(plain)), median(walls(traced))
	c.set("bench.trace_overhead_pct", 100*(t-u)/u)
}

// failMany counts n failed operations of which reasons names the first.
func (c *runCtx) failMany(n int, prefix string, reasons []string) {
	c.out.Failed += n
	for _, r := range reasons {
		if len(c.out.Problems) < maxProblems {
			c.out.Problems = append(c.out.Problems, prefix+r)
		}
	}
}

// account adds one traced repetition (a root span and everything under
// it) to the per-layer account.
func (c *runCtx) account(root int32, wall time.Duration) {
	if c.out.Layers == nil {
		c.out.Layers = map[string]float64{}
	}
	spans, base := c.tr.tree(root)
	for layer, ns := range selfBy(spans, base, (*span).layer) {
		c.out.Layers[layer] += float64(ns) / 1e9
	}
	c.out.TracedWall += wall.Seconds()
}

// more reports whether another repetition fits the measuring budget:
// at least min are made, then as many as end within the budget, give or
// take half a repetition.
func (c *runCtx) more(done, min int, start time.Time, last time.Duration) bool {
	if done < min {
		return true
	}
	if c.reps > 0 {
		return done < c.reps
	}
	return time.Since(start).Seconds()+last.Seconds()/2 < c.seconds
}

// guard runs a probe whose rig may stop it with mustProbe, and counts a
// stopped probe as a failed operation instead of crashing the run.
func (c *runCtx) guard(probe func()) {
	c.attempt(1)
	defer func() {
		if r := recover(); r != nil {
			pf, ok := r.(probeFailure)
			if !ok {
				panic(r)
			}
			c.fail("layer probe: %s", string(pf))
		}
	}()
	probe()
}

// A run sets up at least minSetupPasses times, and goes on (up to
// maxSetupPasses) until the passes add up to minSetupTime: setup_s is
// their median, so one slow page fault or disk flush does not set it,
// and a set-up of under a millisecond is not read off a handful of
// samples.
const (
	minSetupPasses = 5
	maxSetupPasses = 100
	minSetupTime   = 400 * time.Millisecond
)

// timeSetup sets the run up repeatedly and reports the median pass as
// setup_s. One pass loads the pinned outputs and then builds the
// workload's inputs from the seed; the last pass's product is what the
// run uses. The garbage of a pass is collected before the next is timed,
// so that the passes are alike and none inherits another's heap.
func (c *runCtx) timeSetup(build func(pass int) error) error {
	var xs []float64
	var total time.Duration
	for i := 0; i < minSetupPasses || (total < minSetupTime && i < maxSetupPasses); i++ {
		runtime.GC()
		t0 := time.Now()
		if !c.update {
			exp, err := loadExpected()
			if err != nil {
				return err
			}
			c.pins = exp.pinsFor(c.seed, c.name)
			c.out.Pinned = c.pins != nil
		}
		if err := build(i); err != nil {
			return err
		}
		d := time.Since(t0)
		total += d
		xs = append(xs, d.Seconds())
	}
	c.setupPasses = len(xs)
	c.setSummary("setup_s", xs)
	return nil
}

// memCounters is the part of runtime.MemStats the benchmark charges to
// a repetition.
type memCounters struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

func (a memCounters) sub(b memCounters) memCounters {
	return memCounters{a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pauseNs - b.pauseNs}
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is this process's high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workloadFuncs maps each workload name to the function that runs it.
var workloadFuncs = map[string]func(*runCtx) error{
	wlStBurst: runSim,
	wlStMiss:  runSim,
	wlMtShare: runSim,
	wlFig:     runFigMatrix,
	wlServe:   runServeMix,
	wlLitmus:  runLitmus,
}

// runWorkload runs one workload in this process and fills in what every
// workload reports the same way.
func runWorkload(c *runCtx) (*outcome, error) {
	runtime.GOMAXPROCS(c.workers)
	c.out = &outcome{Workload: c.name, Seed: c.seed, Traced: c.traced, Metrics: map[string]value{}}
	if c.traced {
		// Room for every span the workload records (serve_mix: one per
		// request), and no more: the tracer's memory is live heap, and a
		// larger live heap lets the collector run less often.
		n := 1 << 12
		switch c.name {
		case wlServe:
			n = 1 << 15
		case wlFig: // one per cache read of every traced warm pass
			n = 1 << 14
		}
		c.tr = newTracer(n)
	}
	t0, cpu0 := time.Now(), cpuSeconds()
	if err := workloadFuncs[c.name](c); err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	wall := time.Since(t0).Seconds()
	c.out.WallS = wall
	if c.traced {
		c.set("bench.cpu_util", (cpuSeconds()-cpu0)/(wall*float64(c.workers)))
	}
	// Report exactly the declared metrics of this kind of run. A layer a
	// workload does not exercise reads 0.
	specs := endToEndSpecs
	if c.traced {
		specs = perLayerSpecs
	}
	declared := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := c.out.Metrics[s.Name]
		if !ok && !c.traced {
			return nil, fmt.Errorf("%s did not report %s", c.name, s.Name)
		}
		v.Unit = s.Unit
		declared[s.Name] = v
	}
	c.out.Metrics = declared
	return c.out, nil
}
