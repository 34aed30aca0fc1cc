package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tusim/internal/harness"
	"tusim/internal/server"
	"tusim/internal/workload"
)

// The phase-B traffic mix, in percent of operations.
const (
	mixFigure  = 80 // GET /v1/figures/N
	mixCells   = 10 // POST a cells job of 2-4 memoized cells, then GET its output
	mixHist    = 5  // POST a hist job at SB 114, then GET its output
	mixMetrics = 5  // GET /metrics
)

// The four operations of the mix, and their names in span names.
const (
	opFigure = iota
	opCells
	opHist
	opMetrics
)

var opKinds = []string{"figure", "cells_job", "hist_job", "metrics"}

func serveMixCellList() string {
	var b strings.Builder
	for _, c := range matrixCells() {
		fmt.Fprintf(&b, "%s %s ops=%d threads=%d\n", wlServe, harness.CellKey(c), matrixOps(c.Bench), c.Bench.Threads)
	}
	fmt.Fprintf(&b, "%s mix figure=%d cells=%d hist=%d metrics=%d\n", wlServe, mixFigure, mixCells, mixHist, mixMetrics)
	return b.String()
}

// daemon is tusd's core, in this process, behind a loopback listener.
type daemon struct {
	runner *harness.Runner
	srv    *server.Server
	http   *http.Server
	base   string
	client *http.Client
	served chan error
}

// startDaemon builds the server with tusd's Runner settings (quick
// scale, W workers, supervisor, disk cache, two jobs at a time) and
// serves it on 127.0.0.1.
func startDaemon(c *runCtx, cacheDir string) (*daemon, error) {
	r, err := quickRunner(c, cacheDir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{Runner: r, MaxJobs: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		runner: r,
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: c.workers}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, waits for the serve loop and for every job
// build to end, and drops the client's connections.
func (d *daemon) stop() error {
	d.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if werr := d.srv.WaitIdle(ctx); err == nil {
		err = werr
	}
	d.client.CloseIdleConnections()
	return err
}

// get fetches path and returns the body of a 200 reply.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, firstLine(body))
	}
	return body, nil
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return s
}

// job posts a job request and fetches its output once it is finished.
// The output endpoint answers 409 until then; memoized jobs finish in
// well under a millisecond, so the wait is a short poll.
func (d *daemon) job(req []byte) ([]byte, error) {
	resp, err := d.client.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, firstLine(body))
	}
	var j struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &j); err != nil || j.ID == "" {
		return nil, fmt.Errorf("POST /v1/jobs: no job id in %q", firstLine(body))
	}
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := d.client.Get(d.base + "/v1/jobs/" + j.ID + "/output")
		if err != nil {
			return nil, err
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return out, nil
		case resp.StatusCode != http.StatusConflict || !strings.Contains(string(out), "not finished"):
			return nil, fmt.Errorf("job %s output: status %d: %s", j.ID, resp.StatusCode, firstLine(out))
		case time.Now().After(deadline):
			return nil, fmt.Errorf("job %s: not finished after a minute", j.ID)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// reference is what every reply is compared with: the figures rendered
// in-process, the histogram table, and each cell's cycle count.
type reference struct {
	figures map[int][]byte
	hist    []byte
	cycles  map[string]uint64
}

// newReference renders the references through a fresh Runner on the
// daemon's cache directory, after the cold sweep has filled it.
func newReference(c *runCtx, cacheDir string) (*reference, *simTotals, []harness.Result, error) {
	p, err := renderAll(c, nil, "", cacheDir)
	if err != nil {
		return nil, nil, nil, err
	}
	ref := &reference{figures: p.bodies, cycles: map[string]uint64{}}
	rows, err := harness.Histograms(p.runner, 114)
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	harness.PrintHistograms(&buf, rows)
	ref.hist = buf.Bytes()
	// The figures' bytes are what serve_mix pins; fig_matrix pins the cells.
	totals, results := matrixTotals(c, p.runner, matrixCells(), false)
	for k, v := range totals.cyclesBy {
		ref.cycles[k] = v
	}
	return ref, totals, results, nil
}

// cellsJob draws a cells job of 2 or 4 cells: one or two benchmarks,
// the baseline and one other mechanism, at one of the two SB sizes the
// figures use. Figures 10 and 13 run every benchmark under every
// mechanism at both sizes, so every such cell is memoized.
func cellsJob(rng *rand.Rand, benches []string) []byte {
	pick := []string{benches[rng.Intn(len(benches))]}
	if other := benches[rng.Intn(len(benches))]; other != pick[0] {
		pick = append(pick, other)
	}
	mech := []string{"SSB", "CSB", "SPB", "TUS"}[rng.Intn(4)]
	sb := []int{32, 114}[rng.Intn(2)]
	req, err := json.Marshal(server.JobRequest{Kind: "cells", Benches: pick, Mechs: []string{"base", mech}, SBs: []int{sb}})
	if err != nil {
		panic(err) // strings and ints
	}
	return req
}

// opSample is one completed phase-B operation.
type opSample struct {
	kind int
	ms   float64
}

// checkReply compares one reply with the reference.
func (ref *reference) checkReply(kind int, fig int, body []byte) error {
	switch kind {
	case opFigure:
		if !bytes.Equal(body, ref.figures[fig]) {
			return fmt.Errorf("figure %d differs from the in-process rendering", fig)
		}
	case opCells:
		var rows []struct {
			Bench  string `json:"bench"`
			Mech   string `json:"mech"`
			SB     int    `json:"sb"`
			Cycles uint64 `json:"cycles"`
		}
		if err := json.Unmarshal(body, &rows); err != nil {
			return fmt.Errorf("cells job output: %w", err)
		}
		if len(rows) != 2 && len(rows) != 4 {
			return fmt.Errorf("cells job returned %d rows", len(rows))
		}
		for _, r := range rows {
			key := fmt.Sprintf("%s/%s/%d", r.Bench, r.Mech, r.SB)
			if want, ok := ref.cycles[key]; !ok || want != r.Cycles {
				return fmt.Errorf("cells job: %s has %d cycles, reference %d", key, r.Cycles, want)
			}
		}
	case opHist:
		if !bytes.Equal(body, ref.hist) {
			return fmt.Errorf("hist job output differs from the in-process table")
		}
	case opMetrics:
		if !bytes.Contains(body, []byte("tusd_cells_run_total "+strconv.Itoa(len(ref.cycles))+"\n")) {
			return fmt.Errorf("/metrics does not report %d cells run", len(ref.cycles))
		}
	}
	return nil
}

// window is one closed-loop measuring window: W clients, each sending
// its next operation when the previous one has completed.
type window struct {
	samples  []opSample
	failures []string
	failed   int
	seconds  float64
	span     int32
}

func runWindow(c *runCtx, d *daemon, ref *reference, tr *tracer, idx int, length time.Duration) window {
	var benches []string
	for _, b := range workload.All() {
		benches = append(benches, b.Name)
	}
	histReq := []byte(`{"kind":"hist","sb":114}`)
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(length)
	root := tr.begin("bench.window", fmt.Sprintf("%s/w%d", c.name, idx), noSpan, 0)
	for cl := 0; cl < c.workers; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.seed*1_000_003 + int64(idx)*1009 + int64(cl)))
			var local []opSample
			var fails []string
			for n := 0; time.Now().Before(stop); n++ {
				kind, fig := opFigure, figs[rng.Intn(len(figs))]
				switch p := rng.Intn(100); {
				case p < mixFigure:
				case p < mixFigure+mixCells:
					kind = opCells
				case p < mixFigure+mixCells+mixHist:
					kind = opHist
				default:
					kind = opMetrics
				}
				var req []byte
				if kind == opCells {
					req = cellsJob(rng, benches)
				}
				var sp int32 = noSpan
				if tr != nil {
					sp = tr.begin("http."+opKinds[kind], fmt.Sprintf("%s/w%d/c%d/%d", c.name, idx, cl, n), root, int32(cl+1))
				}
				t0 := time.Now()
				var body []byte
				var err error
				switch kind {
				case opFigure:
					body, err = d.get("/v1/figures/" + strconv.Itoa(fig))
				case opCells:
					body, err = d.job(req)
				case opHist:
					body, err = d.job(histReq)
				case opMetrics:
					body, err = d.get("/metrics")
				}
				ms := 1e3 * time.Since(t0).Seconds()
				tr.end(sp)
				if err == nil {
					err = ref.checkReply(kind, fig, body)
				}
				if err != nil {
					fails = append(fails, err.Error())
					continue
				}
				local = append(local, opSample{kind, ms})
			}
			mu.Lock()
			w.samples = append(w.samples, local...)
			w.failed += len(fails)
			if len(w.failures) < maxProblems {
				w.failures = append(w.failures, fails...)
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	tr.end(root)
	w.seconds = time.Since(start).Seconds()
	w.span = root
	return w
}

func (w window) latencies(kind int) []float64 {
	var xs []float64
	for _, s := range w.samples {
		if s.kind == kind {
			xs = append(xs, s.ms)
		}
	}
	return xs
}

// minWindowSamples is how many figure GETs a window must complete for
// its p99 to have ten samples beyond it.
const minWindowSamples = 1000

// runServeMix is serve_mix: a cold sweep of figures 8-15 by one client,
// then closed-loop windows of the seeded mix on the memoized path.
func runServeMix(c *runCtx) error {
	cells := matrixCells()
	var genUops uint64
	setupMark := c.tr.mark()
	var d *daemon
	var cacheDir string
	err := c.timeSetup(func(pass int) error {
		var digest string
		digest, genUops = matrixInputs(c.tr, cells, c.seed)
		c.checkOutput("inputs", "traces", digest)
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		cacheDir = filepath.Join(c.tmp, fmt.Sprintf("servecache-%d", pass))
		var err error
		if d, err = startDaemon(c, cacheDir); err != nil {
			return err
		}
		_, err = d.get("/healthz")
		return err
	})
	if err != nil {
		return err
	}
	setupEnd := c.tr.mark()
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	// Phase A: the cold job path, plan -> prefetch -> render -> HTTP.
	start := time.Now()
	coldBodies := map[int][]byte{}
	var coldFig8 float64
	for _, fig := range figs {
		sp := c.tr.begin("http.figure", fmt.Sprintf("%s/cold/fig%d", c.name, fig), noSpan, 1)
		t0 := time.Now()
		body, err := d.get("/v1/figures/" + strconv.Itoa(fig))
		c.tr.end(sp)
		if err != nil {
			return err
		}
		if fig == 8 {
			coldFig8 = time.Since(t0).Seconds()
		}
		coldBodies[fig] = body
	}
	coldS := time.Since(start).Seconds()
	checkFigures(c, coldBodies)
	checkCacheStats(c, "cold sweep", d.runner, int64(len(cells)), 0)
	ref, totals, results, err := newReference(c, cacheDir)
	if err != nil {
		return err
	}
	c.attempt(1)
	for _, fig := range figs {
		if !bytes.Equal(coldBodies[fig], ref.figures[fig]) {
			c.fail("cold figure %d differs from the in-process rendering", fig)
			break
		}
	}

	// Phase B: three windows in what is left of the budget (four in a
	// traced run: untraced and traced in turn).
	nWindows := 3
	if c.traced {
		nWindows = 4
	}
	length := time.Duration((c.seconds - time.Since(start).Seconds()) / float64(nWindows) * float64(time.Second))
	if c.reps > 0 || length < time.Second {
		length = time.Second
	}
	var p50, p99, rate []float64
	var tracedP50 []float64
	byKind := make([][]float64, len(opKinds))
	var pooled []float64
	for i := 0; i < nWindows; i++ {
		tr := c.tr
		if i%2 == 0 {
			tr = nil
		}
		w := runWindow(c, d, ref, tr, i, length)
		c.attempt(len(w.samples) + w.failed)
		c.failMany(w.failed, fmt.Sprintf("window %d: ", i), w.failures)
		gets := w.latencies(opFigure)
		c.attempt(1)
		if len(gets) < minWindowSamples {
			c.fail("window %d completed %d figure GETs, need %d for a p99", i, len(gets), minWindowSamples)
			continue
		}
		asc := sorted(gets)
		pooled = append(pooled, gets...)
		if tr != nil {
			c.account(w.span, time.Duration(w.seconds*float64(time.Second)))
			tracedP50 = append(tracedP50, nearestRank(asc, 50))
			continue
		}
		p50 = append(p50, nearestRank(asc, 50))
		p99 = append(p99, nearestRank(asc, 99))
		rate = append(rate, float64(len(w.samples))/w.seconds)
		for k := range opKinds {
			byKind[k] = append(byKind[k], w.latencies(k)...)
		}
	}
	checkCacheStats(c, "after the windows", d.runner, int64(len(cells)), 0)
	if len(p50) == 0 {
		return fmt.Errorf("no window completed %d figure GETs", minWindowSamples)
	}

	if !c.traced {
		c.set("cold_s", coldS)
		c.setSummary("warm_ms", p50)
		c.setSummary("work_per_s", rate)
		return nil
	}

	c.set("bench.peak_rss_mb", peakRSSMiB())
	totals.report(c, nil)
	setupSelf := selfByName(c.tr.between(setupMark, setupEnd), setupMark)
	c.set("workload.generate_ns_per_uop", float64(setupSelf["workload.Generate"])/float64(c.setupPasses)/float64(genUops))
	c.set("server.cold_fig8_s", coldFig8)
	c.setSummary("server.warm_p99_ms", p99)
	// p99.9 needs ten thousand samples: it is taken over the figure GETs
	// of every window, traced ones included, and left at 0 if a slow
	// machine completes fewer.
	if v, err := percentile(pooled, 99.9); err == nil {
		c.set("server.warm_p999_ms", v)
	}
	c.set("server.cells_job_ms", median(byKind[opCells]))
	c.set("server.hist_job_ms", median(byKind[opHist]))
	c.set("server.metrics_ms", median(byKind[opMetrics]))
	if len(tracedP50) > 0 {
		c.set("bench.trace_overhead_pct", 100*(median(tracedP50)-median(p50))/median(p50))
	}

	// The handler without TCP or the net/http client: Submit -> job ->
	// Output into an in-memory writer. The difference from the loopback
	// GET is what net/http and the socket cost.
	const submits = 2000
	handler := d.srv.Handler()
	sp := c.tr.begin("server.Submit", c.name+"/probe", noSpan, 0)
	us := make([]float64, submits)
	c.attempt(1)
	for i := range us {
		fig := figs[i%len(figs)]
		req := httptest.NewRequest("GET", "/v1/figures/"+strconv.Itoa(fig), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		us[i] = 1e6 * time.Since(t0).Seconds()
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), ref.figures[fig]) {
			c.fail("in-process GET of figure %d: status %d or wrong body", fig, rec.Code)
			break
		}
	}
	c.tr.end(sp)
	c.set("server.submit_us", median(us))
	c.set("server.http_overhead_us", 1e3*median(p50)-median(us))

	if len(results) == len(cells) {
		c.guard(func() { probeEnergy(c, cells, results) })
	}
	c.guard(func() { probeSystemNew(c, cells) })
	runProbes(c)
	return nil
}
