package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/harness"
	"tusim/internal/isa"
	"tusim/internal/system"
	"tusim/internal/workload"
)

// figs are the figures fig_matrix and serve_mix regenerate.
var figs = []int{8, 9, 10, 11, 12, 13, 14, 15}

// matrixCells is the union of the figures' cells: what an empty-cache
// regeneration simulates, each cell exactly once.
func matrixCells() []harness.Cell { return harness.FigureCellUnion(figs...) }

// quickRunner is a Runner set up as the tusbench and tusd CLIs set
// theirs up at -quick scale: worker pool, supervisor, disk cache.
func quickRunner(c *runCtx, dir string) (*harness.Runner, error) {
	r := harness.NewQuickRunner()
	r.Seed = c.seed
	r.Workers = c.workers
	cache, err := harness.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	r.Cache = cache
	r.Supervisor = harness.NewSupervisor(config.Default().CellTimeout)
	return r, nil
}

// cellConfig is the machine a Runner builds for a cell.
func cellConfig(c harness.Cell) *config.Config {
	return config.Default().WithMechanism(c.Mech).WithSB(c.SB).WithCores(c.Bench.Threads)
}

// matrixOps is the trace length per thread a quick Runner uses for b.
func matrixOps(b workload.Benchmark) int {
	r := harness.NewQuickRunner()
	if b.Threads > 1 {
		return r.ParallelOps
	}
	return r.Ops
}

// matrixInputs generates, from the seed, the traces the matrix's cells
// run on and digests them. The Runner generates its own copy (it owns
// trace interning); this one shows that the seed fixes the inputs and
// prices workload.Generate at the matrix's scale.
func matrixInputs(tr *tracer, cells []harness.Cell, seed int64) (digest string, uops uint64) {
	sim := make([]simCell, len(cells))
	for i, c := range cells {
		sim[i] = simCell{c.Bench, c.Mech, c.SB, matrixOps(c.Bench)}
	}
	ts, digest := generate(tr, noSpan, sim, seed)
	return digest, ts.uops()
}

// matrixUops is the micro-ops a cold pass simulates.
func matrixUops(cells []harness.Cell) uint64 {
	var n uint64
	for _, c := range cells {
		n += uint64(matrixOps(c.Bench)) * uint64(c.Bench.Threads)
	}
	return n
}

func figMatrixCellList() string {
	var b strings.Builder
	for _, c := range matrixCells() {
		fmt.Fprintf(&b, "%s %s ops=%d threads=%d\n", wlFig, harness.CellKey(c), matrixOps(c.Bench), c.Bench.Threads)
	}
	return b.String()
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// cellEvent is one OnCellDone callback.
type cellEvent struct {
	key    string
	cached bool
	d      time.Duration
}

// cellLog collects OnCellDone callbacks and, in a traced pass, turns
// each into a span that ends when the callback fired.
type cellLog struct {
	mu     sync.Mutex
	events []cellEvent
	tr     *tracer
	parent int32
	id     string
	lanes  []int64 // per display lane, when its last span ended
}

func (l *cellLog) done(key string, cached bool, d time.Duration, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, cellEvent{key, cached, d})
	if l.tr == nil {
		return
	}
	end := int64(time.Since(l.tr.epoch))
	start := end - int64(d)
	lane := 0
	for lane < len(l.lanes) && l.lanes[lane] > start {
		lane++
	}
	if lane == len(l.lanes) {
		l.lanes = append(l.lanes, 0)
	}
	l.lanes[lane] = end
	name := "harness.cell"
	if cached {
		name = "harness.cacheGet"
	}
	l.tr.add(span{Name: name, ID: l.id + "/" + key, Start: start, End: end, Parent: l.parent, Tid: int32(lane + 1)})
}

// figPass is one regeneration of figures 8-15 through a fresh Runner.
type figPass struct {
	wall   time.Duration
	span   int32
	bodies map[int][]byte
	runner *harness.Runner
	// Traced passes only: RenderFigure's time split into the part its
	// cells cover (simulation or cache reads, through the worker pool) and
	// the rest (planning, assembling, rendering).
	prefetch, render time.Duration
	cells            []cellEvent
}

// renderAll regenerates the figures through a fresh Runner on dir with
// the product call, RenderFigure. A traced pass puts a span around each
// call and, through OnCellDone, one under it per cell.
func renderAll(c *runCtx, tr *tracer, id, dir string) (*figPass, error) {
	r, err := quickRunner(c, dir)
	if err != nil {
		return nil, err
	}
	p := &figPass{bodies: map[int][]byte{}, runner: r}
	log := &cellLog{tr: tr, id: id}
	if tr != nil {
		r.OnCellDone = log.done
	}
	t0 := time.Now()
	p.span = tr.begin("bench.pass", id, noSpan, 0)
	for _, fig := range figs {
		var buf bytes.Buffer
		sp := tr.begin("harness.RenderFigure", id+"/fig"+strconv.Itoa(fig), p.span, 0)
		log.mu.Lock()
		log.parent = sp
		log.mu.Unlock()
		err := harness.RenderFigure(r, fig, &buf)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		p.bodies[fig] = buf.Bytes()
	}
	tr.end(p.span)
	p.wall = time.Since(t0)
	p.cells = log.events
	if tr != nil {
		spans, base := tr.tree(p.span)
		self := selfTimes(spans, base)
		for i, s := range spans {
			if s.Name == "harness.RenderFigure" {
				p.render += time.Duration(self[i])
				p.prefetch += time.Duration(s.End - s.Start - self[i])
			}
		}
	}
	return p, nil
}

// checkFigures compares each rendered figure with its pin (or with the
// first rendering of this run).
func checkFigures(c *runCtx, bodies map[int][]byte) {
	for _, fig := range figs {
		c.checkOutput("figures", strconv.Itoa(fig), bytesDigest(bodies[fig]))
	}
}

// checkCacheStats requires the pass to have simulated and read from the
// cache exactly the cells it should have.
func checkCacheStats(c *runCtx, what string, r *harness.Runner, run, cached int64) {
	c.attempt(1)
	if cs := r.CacheStats(); cs.CellsRun != run || cs.CellsCached != cached || cs.CacheCorrupt != 0 {
		c.fail("%s: cache stats %+v, want %d run, %d cached, 0 corrupt", what, cs, run, cached)
	}
}

// matrixTotals sums the modelled machine's counters over a finished
// pass and, with check set, compares every cell with its pin. The
// Runner has every cell memoized, so this reads results and simulates
// nothing.
func matrixTotals(c *runCtx, r *harness.Runner, cells []harness.Cell, check bool) (*simTotals, []harness.Result) {
	totals := newSimTotals()
	results := make([]harness.Result, 0, len(cells))
	for _, cell := range cells {
		res, err := r.Run(cell.Bench, cell.Mech, cell.SB)
		if err != nil {
			c.attempt(1)
			c.fail("cell %s: %v", harness.CellKey(cell), err)
			continue
		}
		snap := res.Stats.Snapshot()
		totals.add(harness.CellKey(cell), res.Cores, res.Cycles, snap)
		if check {
			c.checkOutput("cells", harness.CellKey(cell), cellDigest(res.Cycles, snap))
		}
		results = append(results, res)
	}
	return totals, results
}

// warmPasses is how many hot-cache passes follow each cold one.
const warmPasses = 20

// runFigMatrix is fig_matrix: figures 8-15 cold into an empty disk
// cache, then warm passes with a fresh Runner on the same directory.
func runFigMatrix(c *runCtx) error {
	cells := matrixCells()
	var genUops uint64
	setupMark := c.tr.mark()
	err := c.timeSetup(func(int) error {
		var digest string
		digest, genUops = matrixInputs(c.tr, cells, c.seed)
		c.checkOutput("inputs", "traces", digest)
		return nil
	})
	if err != nil {
		return err
	}
	setupEnd := c.tr.mark()
	uops := matrixUops(cells)
	n := int64(len(cells))

	start := time.Now()
	var cold, warmPlain, warmTraced []float64
	var tracedCold *figPass
	var tracedWarmRender []float64
	var lastTotals *simTotals
	var lastResults []harness.Result
	var last time.Duration
	minPasses := 1
	if c.traced {
		minPasses = 2 // the second cold pass is the traced one
	}
	for pass := 0; c.more(pass, minPasses, start, last); pass++ {
		dir := filepath.Join(c.tmp, fmt.Sprintf("figcache-%d", pass))
		// In a traced run the first cold pass is untraced (it is the one
		// that matches the end-to-end run); later ones carry spans.
		tr := c.tr
		if pass == 0 {
			tr = nil
		}
		t0 := time.Now()
		p, err := renderAll(c, tr, fmt.Sprintf("%s/cold%d", c.name, pass), dir)
		if err != nil {
			return err
		}
		cold = append(cold, p.wall.Seconds())
		if tr != nil {
			tracedCold = p
		}
		checkFigures(c, p.bodies)
		checkCacheStats(c, "cold pass", p.runner, n, 0)
		lastTotals, lastResults = matrixTotals(c, p.runner, cells, true)

		for w := 0; w < warmPasses; w++ {
			wtr := c.tr
			if w%2 == 0 {
				wtr = nil
			}
			wp, err := renderAll(c, wtr, fmt.Sprintf("%s/cold%d/warm%d", c.name, pass, w), dir)
			if err != nil {
				return err
			}
			c.attempt(1)
			for _, fig := range figs {
				if !bytes.Equal(wp.bodies[fig], p.bodies[fig]) {
					c.fail("warm pass %d: figure %d differs from the cold rendering", w, fig)
					break
				}
			}
			checkCacheStats(c, "warm pass", wp.runner, 0, n)
			if wtr == nil {
				warmPlain = append(warmPlain, 1e3*wp.wall.Seconds())
			} else {
				warmTraced = append(warmTraced, 1e3*wp.wall.Seconds())
				tracedWarmRender = append(tracedWarmRender, 1e3*wp.render.Seconds())
			}
		}
		last = time.Since(t0)
	}

	if !c.traced {
		c.set("cold_s", cold[0])
		c.setSummary("warm_ms", append(warmPlain, warmTraced...))
		s := summarize(cold)
		c.out.Metrics["work_per_s"] = value{V: float64(uops) / s.Median, N: s.N, Q1: float64(uops) / s.Q3, Q3: float64(uops) / s.Q1}
		return nil
	}

	c.set("bench.peak_rss_mb", peakRSSMiB())
	lastTotals.report(c, nil)
	setupSelf := selfByName(c.tr.between(setupMark, setupEnd), setupMark)
	c.set("workload.generate_ns_per_uop", float64(setupSelf["workload.Generate"])/float64(c.setupPasses)/float64(genUops))
	c.set("bench.trace_overhead_pct", 100*(median(warmTraced)-median(warmPlain))/median(warmPlain))

	// The traced cold pass: where the pool's time went.
	c.account(tracedCold.span, tracedCold.wall)
	c.set("harness.prefetch_s", tracedCold.prefetch.Seconds())
	c.setSummary("harness.render_ms", tracedWarmRender)
	var ds []float64
	var sum time.Duration
	for _, e := range tracedCold.cells {
		if !e.cached {
			ds = append(ds, 1e3*e.d.Seconds())
			sum += e.d
		}
	}
	asc := sorted(ds)
	c.set("harness.cell_ms_p50", nearestRank(asc, 50))
	c.set("harness.cell_ms_max", asc[len(asc)-1])
	c.set("harness.pool_util", sum.Seconds()/(float64(c.workers)*tracedCold.prefetch.Seconds()))
	c.set("harness.sim_cycles_per_s", float64(lastTotals.cycles)/sum.Seconds())
	c.set("system.run_ns_per_uop", float64(sum)/float64(uops))
	c.set("system.run_ns_per_cycle", float64(sum)/float64(lastTotals.cycles))
	c.set("system.run_share", sum.Seconds()/(float64(c.workers)*tracedCold.wall.Seconds()))

	// The model's headline at this scale, beside the paper's +3.2%.
	study, err := harness.Speedups(tracedCold.runner, 114, 114)
	if err != nil {
		return err
	}
	pct := 100 * (study.Geomean[config.TUS] - 1)
	c.set("mech.tus_speedup_pct", pct)
	c.set("model.tus_speedup_st114_pct", pct)
	c.set("model.tus_speedup_err_pp", math.Abs(pct-paperTUSSpeedupPct))

	if len(lastResults) == len(cells) { // else a cell failed, and was counted
		if err := probeCache(c, tracedCold.runner, cells, lastResults); err != nil {
			return err
		}
		c.guard(func() { probeEnergy(c, cells, lastResults) })
	}
	c.guard(func() { probeSystemNew(c, cells) })
	runProbes(c)
	return nil
}

// paperTUSSpeedupPct is the paper's geomean TUS speed-up over the
// single-thread SB-bound set with a 114-entry SB.
const paperTUSSpeedupPct = 3.2

// probeCache prices the content key, a cache write and a cache read per
// cell by calling ContentKey, DiskCache.Put and DiskCache.Get directly,
// on a scratch directory, with the results the pass produced.
func probeCache(c *runCtx, r *harness.Runner, cells []harness.Cell, results []harness.Result) error {
	scratch, err := harness.NewDiskCache(filepath.Join(c.tmp, "figcache-probe"))
	if err != nil {
		return err
	}
	keys := make([]string, len(cells))
	sp := c.tr.begin("harness.ContentKey", c.name+"/probe", noSpan, 0)
	t0 := time.Now()
	for i, cell := range cells {
		keys[i] = r.ContentKey(cell)
	}
	c.set("harness.key_us_per_cell", 1e6*time.Since(t0).Seconds()/float64(len(cells)))
	c.tr.end(sp)

	sp = c.tr.begin("harness.DiskCache.Put", c.name+"/probe", noSpan, 0)
	puts := make([]float64, len(cells))
	for i := range cells {
		t0 := time.Now()
		scratch.Put(keys[i], results[i])
		puts[i] = 1e6 * time.Since(t0).Seconds()
	}
	c.tr.end(sp)
	c.setSummary("harness.cache_put_us", puts)

	// What was written must read back as the same cell.
	sp = c.tr.begin("harness.DiskCache.Get", c.name+"/probe", noSpan, 0)
	gets := make([]float64, len(cells))
	c.attempt(1)
	for i, cell := range cells {
		t0 := time.Now()
		got, st := scratch.Get(keys[i], cell.Bench, cell.Mech, cell.SB)
		gets[i] = 1e6 * time.Since(t0).Seconds()
		if st != harness.CacheHit || got.Cycles != results[i].Cycles {
			c.fail("cache probe: %s did not read back (status %d)", harness.CellKey(cell), st)
			break
		}
	}
	c.tr.end(sp)
	c.setSummary("harness.cache_get_us", gets)
	return os.RemoveAll(scratch.Dir)
}

// probeEnergy prices the energy model per cell on the pass's results.
func probeEnergy(c *runCtx, cells []harness.Cell, results []harness.Result) {
	sp := c.tr.begin("energy.Energy", c.name+"/probe", noSpan, 0)
	defer c.tr.end(sp)
	ns, _ := timeOps(len(cells), func(i int) {
		cell := cells[i]
		model := energy.New(cellConfig(cell))
		mustProbe(model.Energy(results[i].Stats, results[i].Cycles).Total() > 0 && model.EDP(results[i].Stats, results[i].Cycles) > 0,
			"energy model returned nothing for "+harness.CellKey(cell))
	})
	c.setSummary("energy.model_us_per_cell", usPerOp(ns))
}

// probeSystemNew prices system.New over the matrix's own cell shapes
// (1-core and 16-core in the matrix's proportion) by building each
// cell's machine on an empty trace.
func probeSystemNew(c *runCtx, cells []harness.Cell) {
	sp := c.tr.begin("system.New", c.name+"/probe", noSpan, 0)
	defer c.tr.end(sp)
	ns, _ := timeOps(len(cells), func(i int) {
		cell := cells[i]
		streams := make([]isa.Stream, cell.Bench.Threads)
		for t := range streams {
			streams[t] = isa.NewSliceStream(nil)
		}
		_, err := system.New(cellConfig(cell), streams)
		mustProbe(err == nil, "system.New failed for "+harness.CellKey(cell))
	})
	c.setSummary("system.new_us_per_cell", usPerOp(ns))
}
