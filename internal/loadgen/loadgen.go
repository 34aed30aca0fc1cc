// Package loadgen is the invariant checker for the tusd daemon under
// load — the serving-layer analogue of the model checker's differential
// testing: instead of trusting that the service stays correct under
// concurrency, it drives seeded closed-loop mixed traffic (figure
// fetches, SSE subscribers, cell matrices, histograms, litmus checks,
// cancels, duplicate-submit storms) and asserts, while the system is
// saturated, that
//
//   - every figure response is byte-identical to the canonical
//     `tusbench -fig <n>` output for the same scale,
//   - the warm phase simulates nothing: every figure response reports
//     X-Tusd-Cells-Run: 0 and tusd_cells_run_total stays frozen,
//   - the Runner's exactly-once contract holds: the daemon quiesces
//     (tusd_jobs_inflight 0), and then tusd_cells_run_total equals the
//     registry's cell total for the driven figures
//     (harness.FigureCellUnion) with tusd_cache_corrupt_total 0,
//   - every counter series in /metrics is monotone across scrapes,
//   - an SSE stream neither stalls nor breaks, carries exactly one
//     terminal event, last, and that event is `done` with the whole
//     matrix complete,
//   - a canceled job reaches a terminal state, canceled or done,
//   - a storm of identical submissions shares one coalesce key, and
//   - a daemon restarted on a warm cache (the SIGKILL soak) serves the
//     same bytes with tusd_cells_run_total 0.
//
// It asserts and does not time: whether the serving path got slower is
// the benchmark's serve_mix workload.
//
// Decision-making is deterministic: all workload choices come from
// seeded splitmix64 streams behind the faults.DecisionSource interface
// (the same idiom the chaos injector and model checker use), so a load
// profile replays from its seed. The HTTP interleaving itself is of
// course up to the network and scheduler — determinism here means the
// *offered* load, not the observed schedule.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tusim/internal/faults"
	"tusim/internal/harness"
)

const (
	// jobDeadline is the hang detector: the HTTP client's timeout (an
	// in-flight request that survives a daemon SIGKILL, or an SSE stream
	// that stalls, must surface as an error within it), and the bound on
	// every wait for a job to turn terminal or the daemon to quiesce.
	jobDeadline = 2 * time.Minute
	// scrapeEvery is the cadence of the mixed phase's monotonicity
	// scrapes; no invariant depends on it.
	scrapeEvery = 100 * time.Millisecond
)

// Options configures a Loader.
type Options struct {
	// BaseURL is the daemon's base URL ("http://127.0.0.1:port").
	BaseURL string
	// Seed seeds the workers' splitmix64 decision streams.
	Seed uint64
	// Concurrency is the closed-loop worker count. Default 8.
	Concurrency int
	// Requests bounds the mixed phase's total operations. Default 64.
	Requests int
	// Duration, when positive, additionally bounds the mixed phase by
	// wall clock.
	Duration time.Duration
	// Figs are the figures to drive. Default {9}; CheckFigs states what
	// a list must satisfy. Every entry needs a Reference.
	Figs []int
	// References holds the canonical CLI bytes per figure — the
	// byte-identity oracle. RenderReferences builds it from a runner at
	// the daemon's scale.
	References map[int][]byte
	// Warnf receives progress/warning lines. Nil discards.
	Warnf func(format string, args ...any)
}

// op is one row of the mixed phase's table. run returns the operation's
// failure; the worker loop does the accounting.
type op struct {
	name   string
	weight int
	run    func(ctx context.Context, src faults.DecisionSource) error
}

// Loader drives one load scenario and accumulates its report.
type Loader struct {
	o        Options
	client   *http.Client
	deadline time.Duration // jobDeadline
	ops      []op
	// expectedCells is the exactly-once cell total tusd_cells_run_total
	// must land on after the cold sweep and stay at through the warm
	// phase.
	expectedCells int

	base atomic.Value // string: the soak repoints it after the restart
	// tolerant is set inside the soak's kill window, where refused
	// connections are the expected outcome: errors are still counted
	// but stop escalating to violations.
	tolerant atomic.Bool

	mu         sync.Mutex
	counts     map[string]*OpCount
	violations []string
	prevMet    map[string]float64
	scrapes    int
}

// CheckFigs reports whether the mixed phase can run over figs. The
// cells, hist and cancel ops draw from Fig. 9's matrix; without figure 9
// in the sweep they would grow cells_run past the expected total and
// fake an exactly-once violation.
func CheckFigs(figs []int) error {
	for _, f := range figs {
		if f == 9 {
			return nil
		}
	}
	return fmt.Errorf("loadgen: figures %v lack figure 9, whose matrix the cells, hist and cancel ops draw their cells from", figs)
}

// New validates o and builds a Loader.
func New(o Options) (*Loader, error) {
	if o.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Requests <= 0 {
		o.Requests = 64
	}
	if len(o.Figs) == 0 {
		o.Figs = []int{9}
	}
	if err := CheckFigs(o.Figs); err != nil {
		return nil, err
	}
	for _, f := range o.Figs {
		if len(o.References[f]) == 0 {
			return nil, fmt.Errorf("loadgen: no reference bytes for figure %d (render them with RenderReferences)", f)
		}
	}
	l := &Loader{
		o:             o,
		client:        &http.Client{Timeout: jobDeadline},
		deadline:      jobDeadline,
		expectedCells: len(harness.FigureCellUnion(o.Figs...)),
		counts:        map[string]*OpCount{},
	}
	l.base.Store(strings.TrimRight(o.BaseURL, "/"))
	fig := func(src faults.DecisionSource) int { return o.Figs[pick(src, len(o.Figs))] }
	// The weights skew toward the figure path (the byte-identity oracle)
	// while keeping every op in play.
	l.ops = []op{
		// A synchronous GET /v1/figures/{n}: byte identity and, the cold
		// sweep having run, X-Tusd-Cells-Run: 0.
		{"figure", 8, func(ctx context.Context, src faults.DecisionSource) error {
			return l.checkFigure(ctx, fig(src), true)
		}},
		// A figure job followed over its event stream to the terminal
		// event.
		{"sse", 3, func(ctx context.Context, src faults.DecisionSource) error {
			return l.followSSE(ctx, fig(src))
		}},
		// A small cell-matrix job, a histogram job at SB 114 — both out of
		// Fig. 9's matrix, so they can never grow the exactly-once cell
		// total — and a single-program smoke model-check job.
		{"cells", 3, func(ctx context.Context, src faults.DecisionSource) error {
			return l.submitAndWait(ctx, cellsRequest(src), false)
		}},
		{"hist", 1, func(ctx context.Context, _ faults.DecisionSource) error {
			return l.submitAndWait(ctx, map[string]any{"kind": "hist", "sb": 114}, false)
		}},
		{"litmus", 1, func(ctx context.Context, src faults.DecisionSource) error {
			return l.submitAndWait(ctx, litmusRequest(src), false)
		}},
		// A cells job canceled as soon as it is submitted.
		{"cancel", 2, func(ctx context.Context, src faults.DecisionSource) error {
			return l.submitAndWait(ctx, cellsRequest(src), true)
		}},
		// Several identical figure submissions fired at once.
		{"storm", 2, func(ctx context.Context, src faults.DecisionSource) error {
			return l.storm(ctx, fig(src), 4+pick(src, 4))
		}},
	}
	return l, nil
}

// Base returns the current daemon base URL.
func (l *Loader) Base() string { return l.base.Load().(string) }

// BeginKillWindow announces that the daemon is about to be killed: from
// here transport errors are counted but tolerated.
func (l *Loader) BeginKillWindow() { l.tolerant.Store(true) }

// EndKillWindow repoints the loader at the restarted daemon. Its
// counters legitimately restart from zero, so the monotonicity baseline
// is forgotten; errors are violations again.
func (l *Loader) EndKillWindow(base string) {
	l.base.Store(strings.TrimRight(base, "/"))
	l.mu.Lock()
	l.prevMet = nil
	l.mu.Unlock()
	l.tolerant.Store(false)
}

func (l *Loader) warnf(format string, args ...any) {
	if l.o.Warnf != nil {
		l.o.Warnf(format, args...)
	}
}

// violate records one invariant violation.
func (l *Loader) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.violations = append(l.violations, msg)
	l.mu.Unlock()
	l.warnf("tusload: VIOLATION: %s", msg)
}

// err converts recorded violations into a single error.
func (l *Loader) err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.violations) == 0 {
		return nil
	}
	return fmt.Errorf("loadgen: %d invariant violation(s); first: %s", len(l.violations), l.violations[0])
}

// record counts one finished request under name. An error outside the
// kill window is an invariant violation: the acceptance contract is zero
// errors under healthy load.
func (l *Loader) record(name string, err error) {
	l.mu.Lock()
	c := l.counts[name]
	if c == nil {
		c = &OpCount{Name: name}
		l.counts[name] = c
	}
	c.Requests++
	if err != nil {
		c.Errors++
	}
	l.mu.Unlock()
	switch {
	case err == nil:
	case l.tolerant.Load():
		l.warnf("tusload: %s (tolerated during kill window): %v", name, err)
	default:
		l.violate("%s: %v", name, err)
	}
}

// send issues one request, with payload (when non-nil) as its JSON
// body. A non-2xx reply is an error; otherwise the caller closes the
// body.
func (l *Loader) send(ctx context.Context, method, path string, payload any) (*http.Response, error) {
	var reqBody io.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		reqBody = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, l.Base()+path, reqBody)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(resp.Body) // best effort: the status is the error
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, firstLine(body))
	}
	return resp, nil
}

// do is send for a reply that is read whole.
func (l *Loader) do(ctx context.Context, method, path string, payload any) ([]byte, http.Header, error) {
	resp, err := l.send(ctx, method, path, payload)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.Header, err
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// jobJSON mirrors the server's JobJSON wire form (decoded loosely so
// the loader does not import internal/server).
type jobJSON struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	State      string `json:"state"`
	Key        string `json:"key"`
	Error      string `json:"error"`
	CellsTotal int    `json:"cells_total"`
	CellsDone  int    `json:"cells_done"`
}

// terminal reports whether a job state (or SSE event name) is final.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// job issues a request the daemon answers with a job's JSON: a
// submission, a cancel, a status poll.
func (l *Loader) job(ctx context.Context, method, path string, payload any) (jobJSON, error) {
	var j jobJSON
	body, _, err := l.do(ctx, method, path, payload)
	if err != nil {
		return j, err
	}
	if err := json.Unmarshal(body, &j); err != nil {
		return j, fmt.Errorf("%s %s: bad job JSON: %w", method, path, err)
	}
	return j, nil
}

// metrics scrapes and parses /metrics.
func (l *Loader) metrics(ctx context.Context) (map[string]float64, error) {
	body, _, err := l.do(ctx, "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return ParseProm(string(body))
}

// sleep waits out d unless ctx ends first.
func sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// checkFigure performs one GET /v1/figures/{fig} and applies the
// byte-identity (and, when warm, the cells_run: 0) invariant.
func (l *Loader) checkFigure(ctx context.Context, fig int, warm bool) error {
	body, hdr, err := l.do(ctx, "GET", fmt.Sprintf("/v1/figures/%d", fig), nil)
	if err != nil {
		return err
	}
	if want := l.o.References[fig]; !bytes.Equal(body, want) {
		l.violate("figure %d: response differs from canonical CLI bytes (%d vs %d bytes)", fig, len(body), len(want))
	}
	if got := hdr.Get("X-Tusd-Cells-Run"); warm && got != "0" {
		l.violate("figure %d: warm-phase X-Tusd-Cells-Run = %q, want 0", fig, got)
	}
	return nil
}

// sweep fetches every configured figure once, serially.
func (l *Loader) sweep(ctx context.Context, name string, warm bool) {
	for _, fig := range l.o.Figs {
		l.record(name, l.checkFigure(ctx, fig, warm))
	}
}

// ColdSweep fetches every configured figure once against a cold daemon:
// each response must match the CLI bytes, and afterwards the daemon
// must have simulated exactly the registry's expected cell total (the
// exactly-once proof for the cold path).
func (l *Loader) ColdSweep(ctx context.Context) error {
	l.sweep(ctx, "figure-cold", false)
	return l.CheckExactlyOnce(ctx, "after cold sweep")
}

// WarmSweep fetches every configured figure once and requires byte
// identity plus X-Tusd-Cells-Run: 0 — the post-restart proof that the
// disk cache alone reconstructs every response.
func (l *Loader) WarmSweep(ctx context.Context) error {
	l.sweep(ctx, "figure-warm", true)
	return l.err()
}

// Run drives the full scenario: cold sweep, mixed warm-phase load,
// quiesce, and the final exactly-once check proving the warm phase
// simulated nothing.
func (l *Loader) Run(ctx context.Context) error {
	l.warnf("tusload: cold sweep over figures %v", l.o.Figs)
	if err := l.ColdSweep(ctx); err != nil {
		return err
	}
	l.warnf("tusload: mixed phase: %d ops, concurrency %d", l.o.Requests, l.o.Concurrency)
	if err := l.RunMixed(ctx); err != nil {
		return err
	}
	return l.CheckExactlyOnce(ctx, "after warm mixed phase")
}

// RunMixed runs the mixed-op phase: Concurrency closed-loop workers,
// each with its own deterministic decision stream, sharing one op
// budget, while /metrics is scraped for monotonicity from before the
// first op until after the last. The warm figure invariant is active:
// the cold sweep must have run first (Run does this).
func (l *Loader) RunMixed(ctx context.Context) error {
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			l.ScrapeMetrics(ctx)
			select {
			case <-stop:
				l.ScrapeMetrics(ctx)
				return
			case <-tick.C:
			}
		}
	}()

	work := ctx
	if l.o.Duration > 0 {
		var cancel context.CancelFunc
		work, cancel = context.WithTimeout(ctx, l.o.Duration)
		defer cancel()
	}
	var budget atomic.Int64
	budget.Store(int64(l.o.Requests))
	var wg sync.WaitGroup
	for w := 0; w < l.o.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := workerSource(l.o.Seed, w)
			for budget.Add(-1) >= 0 && work.Err() == nil {
				o := l.pickOp(src)
				err := o.run(work, src)
				if work.Err() != nil {
					return // the phase ended under the op: abandoned, not failed
				}
				l.record(o.name, err)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watch.Wait()
	return l.err()
}

// workerSource is worker w's decision stream: golden-ratio offsets keep
// the streams independent, the seed keeps them replayable.
func workerSource(seed uint64, w int) faults.DecisionSource {
	return faults.NewPRNGSource(seed + uint64(w)*0x9E3779B97F4A7C15)
}

// pick chooses from a non-empty domain (Index requires n >= 2).
func pick(src faults.DecisionSource, n int) int {
	if n <= 1 {
		return 0
	}
	return src.Index(n)
}

// pickOp draws the next operation in proportion to the table's weights.
func (l *Loader) pickOp(src faults.DecisionSource) op {
	total := 0
	for _, o := range l.ops {
		total += o.weight
	}
	n := pick(src, total)
	for _, o := range l.ops {
		if n -= o.weight; n < 0 {
			return o
		}
	}
	return l.ops[len(l.ops)-1]
}

// waitDone polls a job until it leaves queued/running and requires it
// to end done — or, when orCanceled is set, canceled. Anything else, a
// hang above all, is the op's failure.
func (l *Loader) waitDone(ctx context.Context, what, id string, orCanceled bool) error {
	deadline := time.Now().Add(l.deadline)
	for {
		j, err := l.job(ctx, "GET", "/v1/jobs/"+id, nil)
		switch {
		case err != nil:
			return err
		case j.State == "done", orCanceled && j.State == "canceled":
			return nil
		case terminal(j.State):
			return fmt.Errorf("%s %s (%s) ended %s (%s)", what, id, j.Kind, j.State, j.Error)
		case time.Now().After(deadline):
			return fmt.Errorf("%s %s: still %s after %v (hang)", what, id, j.State, l.deadline)
		}
		if err := sleep(ctx, 25*time.Millisecond); err != nil {
			return err
		}
	}
}

// submitAndWait posts a job and waits for it to end done. With cancel
// set it cancels the job at once, and canceled — the cancel won the
// race — is as good an end as done.
func (l *Loader) submitAndWait(ctx context.Context, req map[string]any, cancel bool) error {
	j, err := l.job(ctx, "POST", "/v1/jobs", req)
	if err != nil {
		return err
	}
	if !cancel {
		return l.waitDone(ctx, "job", j.ID, false)
	}
	if _, err := l.job(ctx, "POST", "/v1/jobs/"+j.ID+"/cancel", nil); err != nil {
		return err
	}
	return l.waitDone(ctx, "canceled job", j.ID, true)
}

// cellBenches is the pool cells/cancel ops draw from: ST SB-bound
// benchmarks, i.e. Fig. 9's rows, so every generated cell is already in
// the exactly-once union.
var cellBenches = []string{
	"502.gcc1", "502.gcc2", "502.gcc3", "502.gcc4", "502.gcc5",
	"505.mcf", "520.omnetpp", "557.xz", "tf.matmul", "tf.conv", "tf.embed",
}

var cellMechs = []string{"base", "SSB", "CSB", "SPB", "TUS"}

// cellsRequest builds a small in-union cells job.
func cellsRequest(src faults.DecisionSource) map[string]any {
	nb := 1 + pick(src, 3)
	benches := make([]string, 0, nb)
	seen := map[int]bool{}
	for len(benches) < nb {
		i := pick(src, len(cellBenches))
		if !seen[i] {
			seen[i] = true
			benches = append(benches, cellBenches[i])
		}
	}
	mechs := []string{cellMechs[pick(src, len(cellMechs))], "TUS"}
	return map[string]any{"kind": "cells", "benches": benches, "mechs": mechs, "sbs": []int{114}}
}

var litmusProgs = []string{"SB", "MP", "LB"}
var litmusMechs = []string{"base", "CSB", "TUS"}

func litmusRequest(src faults.DecisionSource) map[string]any {
	return map[string]any{
		"kind":  "litmus",
		"progs": []string{litmusProgs[pick(src, len(litmusProgs))]},
		"mechs": []string{litmusMechs[pick(src, len(litmusMechs))]},
		"smoke": true,
	}
}

// followSSE submits a figure job and follows its event stream to the
// end, which must come as exactly one terminal event. The client's
// timeout bounds the whole stream, so one that stalls is a diagnosed
// failure, not a hung worker.
func (l *Loader) followSSE(ctx context.Context, fig int) error {
	j, err := l.job(ctx, "POST", "/v1/jobs", map[string]any{"kind": "figure", "fig": fig})
	if err != nil {
		return err
	}
	resp, err := l.send(ctx, "GET", "/v1/jobs/"+j.ID+"/events", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("events: content type %q", ct)
	}

	events := 0
	var event, data string // the last of each
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			if terminal(event) {
				return fmt.Errorf("events: %q event follows the terminal %q event", name, event)
			}
			event = name
			events++
		} else if d, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			data = d
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: stream stalled or broke after %d events (last %q): %w", events, event, err)
	}
	switch event {
	case "done":
		var final jobJSON
		if err := json.Unmarshal([]byte(data), &final); err != nil {
			return fmt.Errorf("events: terminal payload: %w", err)
		}
		if final.State != "done" {
			return fmt.Errorf("events: done event carries state %q", final.State)
		}
		// A fully warm job legitimately reports cells_done 0 — every
		// cell was served from the in-process memo and no per-cell
		// progress fired. Partial progress, though, must have completed
		// the whole matrix.
		if final.CellsDone != 0 && final.CellsDone != final.CellsTotal {
			return fmt.Errorf("events: terminal cells_done %d != cells_total %d", final.CellsDone, final.CellsTotal)
		}
		return nil
	case "failed", "canceled":
		return fmt.Errorf("events: job ended %s: %s", event, data)
	default:
		return fmt.Errorf("events: stream closed after %d events without a terminal event (last %q)", events, event)
	}
}

// storm fires n identical figure submissions concurrently. The coalesce
// key is content-derived, so every response must carry the same key no
// matter how the requests raced; every job must then reach done.
func (l *Loader) storm(ctx context.Context, fig, n int) error {
	jobs := make([]jobJSON, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			jobs[i], errs[i] = l.job(ctx, "POST", "/v1/jobs", map[string]any{"kind": "figure", "fig": fig})
		}(i)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		if j.Key != jobs[0].Key {
			return fmt.Errorf("storm: submissions %d and 0 disagree on coalesce key (%s vs %s)", i, j.Key, jobs[0].Key)
		}
	}
	// Coalesced duplicates share an ID; polling it again costs one GET.
	for _, j := range jobs {
		if err := l.waitDone(ctx, "storm job", j.ID, false); err != nil {
			return err
		}
	}
	return nil
}

// ScrapeMetrics fetches /metrics, checks every counter series is
// monotone versus the previous scrape, and advances the baseline.
func (l *Loader) ScrapeMetrics(ctx context.Context) {
	cur, err := l.metrics(ctx)
	l.record("metrics", err)
	if err != nil {
		return
	}
	l.mu.Lock()
	prev := l.prevMet
	l.prevMet = cur
	l.scrapes++
	l.mu.Unlock()
	for _, v := range MonotonicViolations(prev, cur) {
		l.violate("metrics: %s", v)
	}
}

// checkCellsRun waits for the daemon to quiesce (jobs_inflight 0 —
// canceled ones included) and then requires tusd_cells_run_total to
// equal want, with no cache entry found corrupt on the way.
func (l *Loader) checkCellsRun(ctx context.Context, when string, want int, why string) error {
	deadline := time.Now().Add(l.deadline)
	for {
		m, err := l.metrics(ctx)
		if err != nil {
			return fmt.Errorf("loadgen: %s: %w", when, err)
		}
		if m["tusd_jobs_inflight"] == 0 {
			if got := m["tusd_cells_run_total"]; got != float64(want) {
				l.violate("%s: tusd_cells_run_total = %v, want exactly %d (%s)", when, got, want, why)
			}
			if c := m["tusd_cache_corrupt_total"]; c != 0 {
				l.violate("%s: tusd_cache_corrupt_total = %v, want 0", when, c)
			}
			return l.err()
		}
		if time.Now().After(deadline) {
			l.violate("%s: daemon never quiesced (%v jobs inflight after %v)", when, m["tusd_jobs_inflight"], l.deadline)
			return l.err()
		}
		if err := sleep(ctx, 50*time.Millisecond); err != nil {
			return err
		}
	}
}

// CheckExactlyOnce requires the quiesced daemon to have simulated the
// registry's expected cell total: every distinct cell exactly once, none
// skipped, none repeated.
func (l *Loader) CheckExactlyOnce(ctx context.Context, when string) error {
	return l.checkCellsRun(ctx, "exactly-once "+when, l.expectedCells,
		fmt.Sprintf("registry cell union for figures %v", l.o.Figs))
}

// CheckAllCached requires the quiesced daemon to have simulated
// NOTHING. This is the post-restart soak invariant — a fresh process on
// a warm disk cache reconstructs every response without running a
// single cell.
func (l *Loader) CheckAllCached(ctx context.Context, when string) error {
	return l.checkCellsRun(ctx, "all-cached "+when, 0, "every cell must come off the disk cache")
}

// RenderReferences renders each figure's canonical CLI bytes through r
// — the byte-identity oracle. r must match the daemon's scale exactly
// (ops, parallel-ops, seed) and should have no disk cache attached so
// the oracle cannot be contaminated by the daemon's own writes.
func RenderReferences(r *harness.Runner, figs []int) (map[int][]byte, error) {
	out := make(map[int][]byte, len(figs))
	for _, fig := range figs {
		var buf bytes.Buffer
		if err := harness.RenderFigure(r, fig, &buf); err != nil {
			return nil, fmt.Errorf("loadgen: reference figure %d: %w", fig, err)
		}
		out[fig] = buf.Bytes()
	}
	return out, nil
}
