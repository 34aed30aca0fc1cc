// Package loadgen is a deterministic open- and closed-loop HTTP load
// generator for the tusd daemon, with live invariant checking — the
// serving-layer analogue of the model checker's differential testing:
// instead of trusting that the service stays correct under concurrency,
// it drives mixed job traffic (figure fetches, SSE subscribers, cell
// matrices, litmus checks, cancels, duplicate-submit storms) and
// asserts, while the system is saturated, that
//
//   - every figure response is byte-identical to the canonical
//     `tusbench -fig <n>` output for the same scale,
//   - the warm phase simulates nothing (cells_run stays frozen and every
//     figure response reports X-Tusd-Cells-Run: 0),
//   - the Runner's exactly-once contract holds: after quiescing, the
//     daemon's tusd_cells_run_total equals the registry's expected cell
//     total for the driven figures (harness.FigureCellUnion), and
//   - every counter series in /metrics is monotone across scrapes.
//
// Decision-making is deterministic: all workload choices come from
// seeded splitmix64 streams behind the faults.DecisionSource interface
// (the same idiom the chaos injector and model checker use), so a load
// profile replays from its seed. The HTTP interleaving itself is of
// course up to the network and scheduler — determinism here means the
// *offered* load, not the observed schedule.
//
// Per-endpoint latency lands in stats.Histogram (power-of-two buckets);
// the Report exports p50/p95/p99 upper bounds via stats.QuantSummary.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tusim/internal/faults"
	"tusim/internal/harness"
	"tusim/internal/stats"
)

// Mix weights the mixed-phase operation kinds. Zero weights disable an
// op; the all-zero Mix is replaced by DefaultMix.
type Mix struct {
	// Figure is a synchronous GET /v1/figures/{n} with byte-identity
	// checking (and warm-phase cells_run: 0 checking).
	Figure int
	// SSE submits a figure job and follows its event stream to the
	// terminal event with per-read deadlines.
	SSE int
	// Cells submits a small cell-matrix job drawn from Fig. 9's matrix
	// (so it can never grow the exactly-once cell total).
	Cells int
	// Hist submits a histogram job at SB 114 (again Fig. 9's matrix).
	Hist int
	// Litmus submits a single-program smoke model-check job.
	Litmus int
	// Cancel submits a cells job and immediately cancels it, then
	// requires the job to reach a terminal state instead of hanging.
	Cancel int
	// Storm fires several identical figure submissions concurrently and
	// requires them all to resolve to the same coalesce key.
	Storm int
}

// DefaultMix skews toward the figure path (the byte-identity oracle)
// while keeping every op kind in play.
func DefaultMix() Mix {
	return Mix{Figure: 8, SSE: 3, Cells: 3, Hist: 1, Litmus: 1, Cancel: 2, Storm: 2}
}

func (m Mix) total() int {
	return m.Figure + m.SSE + m.Cells + m.Hist + m.Litmus + m.Cancel + m.Storm
}

// ops expands the weights into a pick table for DecisionSource.Index.
func (m Mix) ops() []string {
	var out []string
	add := func(name string, w int) {
		for i := 0; i < w; i++ {
			out = append(out, name)
		}
	}
	add("figure", m.Figure)
	add("sse", m.SSE)
	add("cells", m.Cells)
	add("hist", m.Hist)
	add("litmus", m.Litmus)
	add("cancel", m.Cancel)
	add("storm", m.Storm)
	return out
}

// Options configures a Loader.
type Options struct {
	// BaseURL is the daemon's base URL ("http://127.0.0.1:port").
	BaseURL string
	// Client overrides the HTTP client. The default carries a 2-minute
	// timeout, which doubles as the hang detector: an in-flight request
	// that survives a daemon SIGKILL must surface as an error within the
	// timeout, never hang.
	Client *http.Client
	// Seed seeds the splitmix64 decision streams (worker w uses
	// Seed + w*golden-ratio so streams are independent but replayable).
	Seed uint64
	// Concurrency is the closed-loop worker count. Default 8.
	Concurrency int
	// Rate, when positive, switches the mixed phase to open loop:
	// operations launch on a fixed Rate-per-second schedule regardless
	// of completions.
	Rate float64
	// Requests bounds the mixed phase's total operations. Default 64.
	Requests int
	// Duration, when positive, additionally bounds the mixed phase by
	// wall clock.
	Duration time.Duration
	// Figs are the figures to drive. Default {9}. Every entry needs a
	// Reference.
	Figs []int
	// Mix weights the mixed-phase op kinds.
	Mix Mix
	// References holds the canonical CLI bytes per figure — the
	// byte-identity oracle. RenderReferences builds it from a runner at
	// the daemon's scale.
	References map[int][]byte
	// ExpectedCells is the exactly-once cell total the daemon's
	// tusd_cells_run_total must land on after the cold sweep and stay at
	// through the warm phase. Zero selects
	// len(harness.FigureCellUnion(Figs...)); negative disables the check.
	ExpectedCells int
	// MetricsEvery is the monotonicity scrape cadence during the mixed
	// phase. Default 250ms.
	MetricsEvery time.Duration
	// JobDeadline bounds every wait-for-terminal poll. Default 2m.
	JobDeadline time.Duration
	// Warnf receives progress/warning lines. Nil discards.
	Warnf func(format string, args ...any)
}

// endpoint aggregates one logical endpoint's latency and error count.
type endpoint struct {
	hist *stats.Histogram
	errs atomic.Int64
}

// Loader drives one load scenario and accumulates its report.
type Loader struct {
	o      Options
	client *http.Client
	mix    []string

	base atomic.Value // string: mutable so soak can repoint after restart

	set   *stats.Set
	epMu  sync.Mutex
	eps   map[string]*endpoint
	order []string

	requests atomic.Int64
	errors   atomic.Int64
	// tolerant suppresses violation escalation for transport errors —
	// the soak harness sets it around the SIGKILL window, where refused
	// connections are the expected outcome.
	tolerant atomic.Bool

	violMu     sync.Mutex
	violations []string

	promMu  sync.Mutex
	prevMet map[string]float64
	scrapes int

	start time.Time
	mode  string
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
	if o.Mix.total() == 0 {
		o.Mix = DefaultMix()
	}
	if o.MetricsEvery <= 0 {
		o.MetricsEvery = 250 * time.Millisecond
	}
	if o.JobDeadline <= 0 {
		o.JobDeadline = 2 * time.Minute
	}
	for _, f := range o.Figs {
		if len(o.References[f]) == 0 {
			return nil, fmt.Errorf("loadgen: no reference bytes for figure %d (render them with RenderReferences)", f)
		}
	}
	if o.Mix.Cells+o.Mix.Hist > 0 && !containsInt(o.Figs, 9) {
		// Cells and hist ops draw from Fig. 9's matrix; without fig 9 in
		// the sweep they would grow cells_run past the expected total and
		// fake an exactly-once violation.
		return nil, fmt.Errorf("loadgen: cells/hist ops require figure 9 in Figs (their cells are its matrix)")
	}
	if o.ExpectedCells == 0 {
		o.ExpectedCells = len(harness.FigureCellUnion(o.Figs...))
	}
	cl := o.Client
	if cl == nil {
		cl = &http.Client{Timeout: 2 * time.Minute}
	}
	mode := "closed"
	if o.Rate > 0 {
		mode = "open"
	}
	l := &Loader{
		o:      o,
		client: cl,
		mix:    o.Mix.ops(),
		set:    stats.NewSet("tusload"),
		eps:    map[string]*endpoint{},
		start:  time.Now(),
		mode:   mode,
	}
	l.base.Store(strings.TrimRight(o.BaseURL, "/"))
	return l, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Base returns the current daemon base URL.
func (l *Loader) Base() string { return l.base.Load().(string) }

// SetBase repoints the loader at a restarted daemon.
func (l *Loader) SetBase(u string) { l.base.Store(strings.TrimRight(u, "/")) }

// SetTolerant toggles the kill-window mode: transport errors are still
// counted, but stop escalating to invariant violations.
func (l *Loader) SetTolerant(b bool) { l.tolerant.Store(b) }

func (l *Loader) warnf(format string, args ...any) {
	if l.o.Warnf != nil {
		l.o.Warnf(format, args...)
	}
}

// violate records one invariant violation.
func (l *Loader) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.violMu.Lock()
	l.violations = append(l.violations, msg)
	l.violMu.Unlock()
	l.warnf("tusload: VIOLATION: %s", msg)
}

// Violations snapshots the recorded invariant violations.
func (l *Loader) Violations() []string {
	l.violMu.Lock()
	defer l.violMu.Unlock()
	return append([]string(nil), l.violations...)
}

// ep interns one endpoint accumulator.
func (l *Loader) ep(name string) *endpoint {
	l.epMu.Lock()
	defer l.epMu.Unlock()
	e, ok := l.eps[name]
	if !ok {
		e = &endpoint{hist: l.set.Histogram(name)}
		l.eps[name] = e
		l.order = append(l.order, name)
	}
	return e
}

// observe records one operation's latency (µs) and error outcome. A
// transport/protocol error outside the tolerant window is an invariant
// violation: the acceptance contract is zero errors under healthy load.
func (l *Loader) observe(name string, d time.Duration, err error) {
	e := l.ep(name)
	l.requests.Add(1)
	e.hist.Observe(uint64(d.Microseconds()))
	if err != nil {
		e.errs.Add(1)
		l.errors.Add(1)
		if !l.tolerant.Load() {
			l.violate("%s: %v", name, err)
		} else {
			l.warnf("tusload: %s (tolerated during kill window): %v", name, err)
		}
	}
}

// get issues a GET and returns body+headers, treating non-2xx as error.
func (l *Loader) get(ctx context.Context, path string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", l.Base()+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.Header, err
	}
	if resp.StatusCode/100 != 2 {
		return body, resp.Header, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, firstLine(body))
	}
	return body, resp.Header, nil
}

// post issues a JSON POST and decodes the response into out (when
// non-nil), treating non-2xx as error.
func (l *Loader) post(ctx context.Context, path string, payload, out any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", l.Base()+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, firstLine(body))
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
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
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	State       string `json:"state"`
	Key         string `json:"key"`
	Error       string `json:"error"`
	CellsTotal  int    `json:"cells_total"`
	CellsDone   int    `json:"cells_done"`
	CellsRun    int    `json:"cells_run"`
	CellsCached int    `json:"cells_cached"`
}

// checkFigure performs one GET /v1/figures/{fig} and applies the
// byte-identity (and, when warm, the cells_run: 0) invariant.
func (l *Loader) checkFigure(ctx context.Context, fig int, warm bool, epName string) {
	t0 := time.Now()
	body, hdr, err := l.get(ctx, fmt.Sprintf("/v1/figures/%d", fig))
	l.observe(epName, time.Since(t0), err)
	if err != nil {
		return
	}
	if want := l.o.References[fig]; !bytes.Equal(body, want) {
		l.violate("figure %d: response differs from canonical CLI bytes (%d vs %d bytes)", fig, len(body), len(want))
	}
	if warm {
		if got := hdr.Get("X-Tusd-Cells-Run"); got != "0" {
			l.violate("figure %d: warm-phase X-Tusd-Cells-Run = %q, want 0", fig, got)
		}
	}
}

// ColdSweep fetches every configured figure once, serially, against a
// cold daemon: each response must match the CLI bytes, and afterwards
// the daemon must have simulated exactly the registry's expected cell
// total (the exactly-once proof for the cold path).
func (l *Loader) ColdSweep(ctx context.Context) error {
	for _, fig := range l.o.Figs {
		l.checkFigure(ctx, fig, false, "figure-cold")
	}
	if err := l.CheckExactlyOnce(ctx, "after cold sweep"); err != nil {
		return err
	}
	return l.err()
}

// WarmSweep fetches every configured figure once and requires byte
// identity plus X-Tusd-Cells-Run: 0 — the post-restart proof that the
// disk cache alone reconstructs every response.
func (l *Loader) WarmSweep(ctx context.Context) error {
	for _, fig := range l.o.Figs {
		l.checkFigure(ctx, fig, true, "figure-warm")
	}
	return l.err()
}

// err converts recorded violations into a single error.
func (l *Loader) err() error {
	v := l.Violations()
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("loadgen: %d invariant violation(s); first: %s", len(v), v[0])
}

// Run drives the full scenario: cold sweep, mixed warm-phase load
// (closed- or open-loop), quiesce, and the final exactly-once check
// proving the warm phase simulated nothing.
func (l *Loader) Run(ctx context.Context) error {
	l.warnf("tusload: cold sweep over figures %v", l.o.Figs)
	if err := l.ColdSweep(ctx); err != nil {
		return err
	}
	l.warnf("tusload: mixed %s-loop phase: %d ops, concurrency %d, rate %.1f/s",
		l.mode, l.o.Requests, l.o.Concurrency, l.o.Rate)
	if err := l.RunMixed(ctx); err != nil {
		return err
	}
	if err := l.CheckExactlyOnce(ctx, "after warm mixed phase"); err != nil {
		return err
	}
	return l.err()
}

// RunMixed runs the mixed-op phase. The warm figure invariant is active:
// the cold sweep must have run first (Run does this).
func (l *Loader) RunMixed(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if l.o.Duration > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, l.o.Duration)
		defer tcancel()
	}

	// Metrics monotonicity watcher.
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(l.o.MetricsEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				l.ScrapeMetrics(ctx)
			}
		}
	}()

	if l.o.Rate > 0 {
		l.runOpen(ctx)
	} else {
		l.runClosed(ctx)
	}
	cancel()
	watch.Wait()
	return l.err()
}

// runClosed runs Concurrency workers, each with its own deterministic
// decision stream, sharing one op budget.
func (l *Loader) runClosed(ctx context.Context) {
	var budget atomic.Int64
	budget.Store(int64(l.o.Requests))
	var wg sync.WaitGroup
	for w := 0; w < l.o.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := faults.NewPRNGSource(l.o.Seed + uint64(w)*0x9E3779B97F4A7C15)
			for budget.Add(-1) >= 0 && ctx.Err() == nil {
				l.step(ctx, src)
			}
		}(w)
	}
	wg.Wait()
}

// runOpen launches ops on a fixed schedule regardless of completions —
// the arrival process of an external client population.
func (l *Loader) runOpen(ctx context.Context) {
	interval := time.Duration(float64(time.Second) / l.o.Rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	src := &lockedSource{src: faults.NewPRNGSource(l.o.Seed)}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var wg sync.WaitGroup
	launched := 0
	for launched < l.o.Requests && ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-tick.C:
			wg.Add(1)
			launched++
			go func() {
				defer wg.Done()
				l.step(ctx, src)
			}()
		}
	}
	wg.Wait()
}

// lockedSource makes one shared decision stream safe for the open
// loop's concurrent ops while keeping the stream itself deterministic
// (the sequence of drawn values is fixed; which op observes which value
// depends on arrival order, as in any open-loop generator).
type lockedSource struct {
	mu  sync.Mutex
	src faults.DecisionSource
}

func (s *lockedSource) Hit(pct int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Hit(pct)
}

func (s *lockedSource) Amount(max uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Amount(max)
}

func (s *lockedSource) Index(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Index(n)
}

// pick chooses from a non-empty domain (Index requires n >= 2).
func pick(src faults.DecisionSource, n int) int {
	if n <= 1 {
		return 0
	}
	return src.Index(n)
}

// step executes one mixed-phase operation chosen by the decision stream.
func (l *Loader) step(ctx context.Context, src faults.DecisionSource) {
	switch l.mix[pick(src, len(l.mix))] {
	case "figure":
		l.checkFigure(ctx, l.o.Figs[pick(src, len(l.o.Figs))], true, "figure")
	case "sse":
		l.opSSE(ctx, src)
	case "cells":
		l.opCells(ctx, src)
	case "hist":
		l.opHist(ctx)
	case "litmus":
		l.opLitmus(ctx, src)
	case "cancel":
		l.opCancel(ctx, src)
	case "storm":
		l.opStorm(ctx, src)
	}
}

// waitTerminal polls a job until it leaves queued/running.
func (l *Loader) waitTerminal(ctx context.Context, id string) (jobJSON, error) {
	deadline := time.Now().Add(l.o.JobDeadline)
	for {
		var j jobJSON
		body, _, err := l.get(ctx, "/v1/jobs/"+id)
		if err != nil {
			return j, err
		}
		if err := json.Unmarshal(body, &j); err != nil {
			return j, fmt.Errorf("job %s: bad JSON: %w", id, err)
		}
		switch j.State {
		case "done", "failed", "canceled":
			return j, nil
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("job %s: still %s after %v (hang)", id, j.State, l.o.JobDeadline)
		}
		select {
		case <-ctx.Done():
			return j, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// opSSE submits a figure job and follows its SSE stream to the terminal
// event. Every read carries an explicit deadline: a stalled stream is a
// diagnosed violation, not a hung worker.
func (l *Loader) opSSE(ctx context.Context, src faults.DecisionSource) {
	fig := l.o.Figs[pick(src, len(l.o.Figs))]
	t0 := time.Now()
	err := l.sseFollow(ctx, fig)
	l.observe("sse", time.Since(t0), err)
}

func (l *Loader) sseFollow(ctx context.Context, fig int) error {
	var j jobJSON
	if err := l.post(ctx, "/v1/jobs", map[string]any{"kind": "figure", "fig": fig}, &j); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "GET", l.Base()+"/v1/jobs/"+j.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return fmt.Errorf("events: content type %q", ct)
	}

	lines := make(chan string, 64)
	errc := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		errc <- sc.Err()
		close(lines)
	}()

	events := 0
	var lastEvent, lastData string
	readDeadline := l.o.JobDeadline
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case line, ok := <-lines:
			if !ok {
				// Stream closed; the last event must have been terminal.
				if e := <-errc; e != nil {
					return fmt.Errorf("events: read: %w", e)
				}
				switch lastEvent {
				case "done":
					var final jobJSON
					if err := json.Unmarshal([]byte(lastData), &final); err != nil {
						return fmt.Errorf("events: terminal payload: %w", err)
					}
					if final.State != "done" {
						return fmt.Errorf("events: done event carries state %q", final.State)
					}
					// A fully warm job legitimately reports cells_done 0 —
					// every cell was served from the in-process memo and no
					// per-cell progress fired. Partial progress, though, must
					// have completed the whole matrix.
					if final.CellsDone != 0 && final.CellsDone != final.CellsTotal {
						return fmt.Errorf("events: terminal cells_done %d != cells_total %d", final.CellsDone, final.CellsTotal)
					}
					return nil
				case "failed", "canceled":
					return fmt.Errorf("events: job ended %s: %s", lastEvent, lastData)
				default:
					return fmt.Errorf("events: stream closed after %d events without a terminal event (last %q)", events, lastEvent)
				}
			}
			if strings.HasPrefix(line, "event: ") {
				lastEvent = strings.TrimPrefix(line, "event: ")
				events++
			}
			if strings.HasPrefix(line, "data: ") {
				lastData = strings.TrimPrefix(line, "data: ")
			}
		case <-time.After(readDeadline):
			return fmt.Errorf("events: no line within %v after %d events (last %q) — stalled stream", readDeadline, events, lastEvent)
		}
	}
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

func (l *Loader) opCells(ctx context.Context, src faults.DecisionSource) {
	reqBody := cellsRequest(src)
	t0 := time.Now()
	err := l.submitAndWait(ctx, reqBody, "done")
	l.observe("cells", time.Since(t0), err)
}

func (l *Loader) opHist(ctx context.Context) {
	t0 := time.Now()
	err := l.submitAndWait(ctx, map[string]any{"kind": "hist", "sb": 114}, "done")
	l.observe("hist", time.Since(t0), err)
}

var litmusProgs = []string{"SB", "MP", "LB"}
var litmusMechs = []string{"base", "CSB", "TUS"}

func (l *Loader) opLitmus(ctx context.Context, src faults.DecisionSource) {
	reqBody := map[string]any{
		"kind":  "litmus",
		"progs": []string{litmusProgs[pick(src, len(litmusProgs))]},
		"mechs": []string{litmusMechs[pick(src, len(litmusMechs))]},
		"smoke": true,
	}
	t0 := time.Now()
	err := l.submitAndWait(ctx, reqBody, "done")
	l.observe("litmus", time.Since(t0), err)
}

// submitAndWait posts a job and requires the given terminal state.
func (l *Loader) submitAndWait(ctx context.Context, reqBody map[string]any, want string) error {
	var j jobJSON
	if err := l.post(ctx, "/v1/jobs", reqBody, &j); err != nil {
		return err
	}
	final, err := l.waitTerminal(ctx, j.ID)
	if err != nil {
		return err
	}
	if final.State != want {
		return fmt.Errorf("job %s (%s): state %s (%s), want %s", j.ID, j.Kind, final.State, final.Error, want)
	}
	return nil
}

// opCancel submits a cells job, cancels it immediately, and requires a
// terminal state: canceled if the cancel won the race, done if the job
// beat it. Anything else — especially a hang — is a violation.
func (l *Loader) opCancel(ctx context.Context, src faults.DecisionSource) {
	t0 := time.Now()
	err := func() error {
		var j jobJSON
		if err := l.post(ctx, "/v1/jobs", cellsRequest(src), &j); err != nil {
			return err
		}
		if err := l.post(ctx, "/v1/jobs/"+j.ID+"/cancel", map[string]any{}, nil); err != nil {
			return err
		}
		final, err := l.waitTerminal(ctx, j.ID)
		if err != nil {
			return err
		}
		if final.State != "canceled" && final.State != "done" {
			return fmt.Errorf("canceled job %s ended %s (%s)", j.ID, final.State, final.Error)
		}
		return nil
	}()
	l.observe("cancel", time.Since(t0), err)
}

// opStorm fires several identical figure submissions concurrently. The
// coalesce key is content-derived, so every response must carry the
// same key no matter how the requests raced; every job must then reach
// done.
func (l *Loader) opStorm(ctx context.Context, src faults.DecisionSource) {
	fig := l.o.Figs[pick(src, len(l.o.Figs))]
	n := 4 + pick(src, 4)
	t0 := time.Now()
	jobs := make([]jobJSON, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = l.post(ctx, "/v1/jobs", map[string]any{"kind": "figure", "fig": fig}, &jobs[i])
		}(i)
	}
	wg.Wait()
	err := func() error {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		for i := 1; i < n; i++ {
			if jobs[i].Key != jobs[0].Key {
				return fmt.Errorf("storm: submissions %d and 0 disagree on coalesce key (%s vs %s)", i, jobs[i].Key, jobs[0].Key)
			}
		}
		// Wait out the distinct job IDs (duplicates coalesce to one).
		seen := map[string]bool{}
		for _, j := range jobs {
			if seen[j.ID] {
				continue
			}
			seen[j.ID] = true
			final, err := l.waitTerminal(ctx, j.ID)
			if err != nil {
				return err
			}
			if final.State != "done" {
				return fmt.Errorf("storm job %s ended %s (%s)", j.ID, final.State, final.Error)
			}
		}
		return nil
	}()
	l.observe("storm", time.Since(t0), err)
}

// ScrapeMetrics fetches /metrics, checks every counter series is
// monotone versus the previous scrape, and advances the baseline.
func (l *Loader) ScrapeMetrics(ctx context.Context) {
	t0 := time.Now()
	body, _, err := l.get(ctx, "/metrics")
	l.observe("metrics", time.Since(t0), err)
	if err != nil {
		return
	}
	cur, err := ParseProm(string(body))
	if err != nil {
		l.violate("metrics: unparseable exposition: %v", err)
		return
	}
	l.promMu.Lock()
	prev := l.prevMet
	l.prevMet = cur
	l.scrapes++
	l.promMu.Unlock()
	if prev != nil {
		for _, v := range MonotonicViolations(prev, cur) {
			l.violate("metrics: %s", v)
		}
	}
}

// ResetMetricsBaseline forgets the previous scrape — required after a
// daemon restart, where counters legitimately reset to zero.
func (l *Loader) ResetMetricsBaseline() {
	l.promMu.Lock()
	l.prevMet = nil
	l.promMu.Unlock()
}

// CheckExactlyOnce waits for the daemon to quiesce (jobs_inflight 0 —
// canceled ones included) and then requires tusd_cells_run_total to
// equal the registry's expected cell total: every distinct cell
// simulated exactly once, none skipped, none repeated.
func (l *Loader) CheckExactlyOnce(ctx context.Context, when string) error {
	if l.o.ExpectedCells < 0 {
		return nil
	}
	deadline := time.Now().Add(l.o.JobDeadline)
	var m map[string]float64
	for {
		body, _, err := l.get(ctx, "/metrics")
		if err != nil {
			return fmt.Errorf("loadgen: exactly-once %s: %w", when, err)
		}
		m, err = ParseProm(string(body))
		if err != nil {
			return fmt.Errorf("loadgen: exactly-once %s: %w", when, err)
		}
		if m["tusd_jobs_inflight"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			l.violate("exactly-once %s: daemon never quiesced (%v jobs inflight after %v)",
				when, m["tusd_jobs_inflight"], l.o.JobDeadline)
			return l.err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	got := int(m["tusd_cells_run_total"])
	if got != l.o.ExpectedCells {
		l.violate("exactly-once %s: tusd_cells_run_total = %d, want exactly %d (registry cell union for figures %v)",
			when, got, l.o.ExpectedCells, l.o.Figs)
	}
	if c := m["tusd_cache_corrupt_total"]; c != 0 {
		l.violate("exactly-once %s: tusd_cache_corrupt_total = %v, want 0", when, c)
	}
	return l.err()
}

// CheckAllCached waits for quiescence and then requires the daemon to
// have simulated NOTHING: tusd_cells_run_total must be 0. This is the
// post-restart soak invariant — a fresh process on a warm disk cache
// reconstructs every response without running a single cell.
func (l *Loader) CheckAllCached(ctx context.Context, when string) error {
	body, _, err := l.get(ctx, "/metrics")
	if err != nil {
		return fmt.Errorf("loadgen: all-cached %s: %w", when, err)
	}
	m, err := ParseProm(string(body))
	if err != nil {
		return fmt.Errorf("loadgen: all-cached %s: %w", when, err)
	}
	if got := m["tusd_cells_run_total"]; got != 0 {
		l.violate("all-cached %s: tusd_cells_run_total = %v, want 0 (every cell must come off the disk cache)", when, got)
	}
	if c := m["tusd_cache_corrupt_total"]; c != 0 {
		l.violate("all-cached %s: tusd_cache_corrupt_total = %v, want 0", when, c)
	}
	return l.err()
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

// Report assembles the latency/violation report.
func (l *Loader) Report() Report {
	l.epMu.Lock()
	names := append([]string(nil), l.order...)
	l.epMu.Unlock()
	sort.Strings(names)
	eps := make([]EndpointStats, 0, len(names))
	for _, n := range names {
		e := l.ep(n)
		eps = append(eps, EndpointStats{
			Endpoint:  n,
			Errors:    e.errs.Load(),
			LatencyUS: e.hist.Snapshot().Summary(),
		})
	}
	l.promMu.Lock()
	scrapes := l.scrapes
	l.promMu.Unlock()
	return Report{
		HarnessVersion: harness.Version,
		Seed:           l.o.Seed,
		Mode:           l.mode,
		Concurrency:    l.o.Concurrency,
		RatePerSec:     l.o.Rate,
		Figs:           append([]int(nil), l.o.Figs...),
		ExpectedCells:  l.o.ExpectedCells,
		Seconds:        time.Since(l.start).Seconds(),
		Requests:       l.requests.Load(),
		Errors:         l.errors.Load(),
		MetricsScrapes: scrapes,
		Violations:     l.Violations(),
		Endpoints:      eps,
	}
}
