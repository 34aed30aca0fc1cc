// Package server is tusd's service layer: it turns the one-shot
// evaluation harness into a long-running, network-facing query service.
// Figure, histogram, cell-matrix, and litmus-check jobs are scheduled
// on a bounded pool that reuses the process-wide harness.Runner (worker
// pool, supervision, quarantine) and its shared content-addressed disk
// cache; identical in-flight requests coalesce via singleflight keyed
// on the cells' identities and the runner's scale, and a request
// identical to a done job is born done with its bytes; per-cell progress
// streams over SSE; /metrics exposes Prometheus text with no
// dependencies.
//
// Determinism contract: a figure job's bytes are exactly what
// `tusbench -fig <n>` prints for the same scale flags — the job builds
// the same registry row (a harness.Study) that harness.RenderFigure
// builds for the CLI, and the harness's parallel/cached paths are
// byte-identical by construction. The CI smoke job diffs the two
// byte-for-byte.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tusim/internal/harness"
	"tusim/internal/stats"
)

// Options configures a Server.
type Options struct {
	// Runner is the shared harness runner (required). The server owns
	// its OnCellDone hook: per-cell progress dispatch and the cell
	// latency histogram hang off it. New reads the runner's scale
	// (Seed, Ops, ParallelOps, Check) once, to compile the figure
	// plans: set it before New and leave it.
	Runner *harness.Runner
	// MaxJobs bounds concurrently building jobs; queued jobs wait.
	// Cell-level parallelism inside one job is still bounded by
	// Runner.Workers. Default 2.
	MaxJobs int
	// JobTimeout is the per-job deadline; a job that exceeds it fails
	// with "job deadline exceeded". 0 disables.
	JobTimeout time.Duration
	// KeepJobs bounds the finished-job history in the registry (the
	// jobs that turned terminal first are evicted past it), and with it
	// the done products a repeated request is served from. Default 512.
	KeepJobs int
	// Warnf receives operational warnings (never figure output). Nil
	// discards.
	Warnf func(format string, args ...any)
}

// Server is the tusd core, independent of the listener so tests can
// drive it through httptest.
type Server struct {
	o   Options
	r   *harness.Runner
	mux *http.ServeMux

	// figures are the compiled figure plans, by figure number.
	figures map[int]*jobPlan

	mu   sync.Mutex
	jobs map[string]*Job
	// latest maps a coalesce key to the newest registered job for it:
	// a running one to coalesce onto, or a done one whose bytes a
	// repeated request is served from.
	latest map[string]*Job
	// finished holds the registered terminal jobs in the order they
	// turned terminal; eviction pops its front.
	finished []*Job
	byCell   map[string]map[*Job]bool
	seq      int
	// jobsCompleted counts terminal jobs by (kind, terminal state).
	jobsCompleted map[[2]string]int64

	jobsInflight atomic.Int64
	coalescedN   atomic.Int64

	// cellHist observes the scheduler-side wall latency of every
	// freshly simulated cell, in microseconds (stats.Histogram reused
	// for /metrics export).
	metricSet *stats.Set
	cellHist  *stats.Histogram

	// sem is the bounded job pool: one slot per concurrently building
	// job.
	sem chan struct{}

	// draining is set under mu, so a Submit that saw it clear has
	// added its build to builds before StartDrain returns.
	draining atomic.Bool
	builds   sync.WaitGroup
	started  time.Time
}

// New builds a server around the shared runner and installs its
// OnCellDone hook.
func New(o Options) *Server {
	if o.Runner == nil {
		panic("server: Options.Runner is required")
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 2
	}
	if o.KeepJobs <= 0 {
		o.KeepJobs = 512
	}
	ms := stats.NewSet("tusd")
	s := &Server{
		o:             o,
		r:             o.Runner,
		figures:       map[int]*jobPlan{},
		jobs:          map[string]*Job{},
		latest:        map[string]*Job{},
		byCell:        map[string]map[*Job]bool{},
		jobsCompleted: map[[2]string]int64{},
		metricSet:     ms,
		cellHist:      ms.Histogram("cell_latency_us"),
		started:       time.Now(),
	}
	s.sem = make(chan struct{}, o.MaxJobs)
	for _, f := range harness.Figures() {
		s.figures[f.Fig] = s.studyPlan("figure", f.Name, f.Name, "text/plain; charset=utf-8", f)
	}
	o.Runner.OnCellDone = s.onCellDone
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// warnf routes an operational warning.
func (s *Server) warnf(format string, args ...any) {
	if s.o.Warnf != nil {
		s.o.Warnf(format, args...)
	}
}

// onCellDone is the Runner's cell-completion hook: it feeds the cell
// latency histogram and fans progress out to every job waiting on that
// cell. It runs on harness worker goroutines.
func (s *Server) onCellDone(key string, cached bool, d time.Duration, err error) {
	if !cached && err == nil {
		s.cellHist.Observe(uint64(d.Microseconds()))
	}
	s.mu.Lock()
	waiters := s.byCell[key]
	delete(s.byCell, key) // the set is this call's alone from here on
	s.mu.Unlock()
	for j := range waiters {
		s.deliverCell(j, key, cached, d, err)
	}
}

// deliverCell updates one job's progress for a completed cell and
// broadcasts the event. Idempotent per (job, cell), and a no-op once the
// job is terminal (finalize drops the pending set).
func (s *Server) deliverCell(j *Job, key string, cached bool, d time.Duration, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.pending[key] {
		return
	}
	delete(j.pending, key)
	if err == nil {
		if cached {
			j.cellsCached++
		} else {
			j.cellsRun++
		}
	}
	j.cellEventLocked(key, cached, d.Seconds(), j.cellsDone+1, err)
}

// cellEventLocked records that done cells have completed and broadcasts
// the per-cell progress event; callers hold mu. The litmus job calls it
// directly, since model-check cells do not flow through the harness.
func (j *Job) cellEventLocked(cell string, cached bool, seconds float64, done int, err error) {
	j.cellsDone = done
	ev := map[string]any{
		"cell":    cell,
		"cached":  cached,
		"seconds": seconds,
		"done":    done,
		"total":   j.cellsTotal,
	}
	if err != nil {
		ev["error"] = err.Error()
	}
	data, _ := json.Marshal(ev)
	j.broadcast(sseEvent{name: "cell", data: data})
}

// Submit validates req and then, under the coalesce key, attaches it
// to a job still running, serves it from a done Runner-backed job, or
// schedules a new job. The bool reports whether the request coalesced
// onto a running job.
func (s *Server) Submit(req JobRequest) (*Job, bool, error) {
	p, err := s.plan(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil, false, errDraining
	}
	if prev := s.latest[p.key]; prev != nil {
		prev.mu.Lock()
		state, out, deg := prev.state, prev.output, prev.degraded
		live := !isTerminal(state)
		if live {
			prev.coalesced++
		}
		prev.mu.Unlock()
		switch {
		case live:
			s.coalescedN.Add(1)
			return prev, true, nil
		case state == JobDone && p.keys != nil:
			// A Runner-backed product is a function of its cells, and the
			// cell memo and the quarantine are permanent in this process:
			// the done job's bytes are this request's bytes. The new job
			// is born done and builds nothing.
			j := s.registerLocked(p, JobDone)
			j.output, j.degraded = out, deg
			j.started, j.finished = j.created, j.created
			j.done, j.cancel = closedDone, func() {}
			s.finished = append(s.finished, j)
			s.jobsCompleted[[2]string{j.Kind, JobDone}]++
			return j, false, nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := s.registerLocked(p, JobQueued)
	j.done, j.cancel = make(chan struct{}), cancel
	j.pending = make(map[string]bool, len(p.keys))
	for _, k := range p.keys {
		j.pending[k] = true
		w := s.byCell[k]
		if w == nil {
			w = map[*Job]bool{}
			s.byCell[k] = w
		}
		w[j] = true
	}
	s.jobsInflight.Add(1)
	s.builds.Add(1)
	go s.runJob(ctx, j, p)
	return j, false, nil
}

// registerLocked registers a new job as the latest for its key, first
// evicting the jobs that turned terminal first while the registry is at
// the KeepJobs bound; callers hold s.mu.
func (s *Server) registerLocked(p *jobPlan, state string) *Job {
	for len(s.jobs) >= s.o.KeepJobs && len(s.finished) > 0 {
		old := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.jobs, old.ID)
		if s.latest[old.Key] == old {
			delete(s.latest, old.Key)
		}
	}
	s.seq++
	j := &Job{
		ID:          "j" + strconv.Itoa(s.seq),
		Kind:        p.kind,
		Name:        p.name,
		Key:         p.key,
		seq:         s.seq,
		state:       state,
		contentType: p.contentType,
		created:     time.Now(),
		cellsTotal:  p.total,
	}
	s.jobs[j.ID] = j
	s.latest[p.key] = j
	return j
}

var errDraining = errors.New("server is draining")

// closedDone is the done channel of every job born done.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// isTerminal reports whether state is one of the three final states.
func isTerminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// terminal reports whether the job has reached a final state.
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return isTerminal(j.state)
}

// runJob drives one job on its own goroutine: pool admission, per-job
// deadline, build, finalization. Cancel and -job-timeout are one
// mechanism — the job's context — and it reaches the cells the job is
// simulating (a cell shared with another job through the Runner's
// singleflight is simulated again by that job). So a stopped job
// returns, and frees its pool slot, within milliseconds, and drain has
// nothing to wait for but this function.
func (s *Server) runJob(ctx context.Context, j *Job, p *jobPlan) {
	defer s.builds.Done()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finalize(j, p, JobCanceled, nil, "canceled while queued")
		return
	}
	defer func() { <-s.sem }()
	if s.o.JobTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, s.o.JobTimeout)
		defer tcancel()
	}
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.broadcast(j.stateEventLocked())
	j.mu.Unlock()

	out, err := s.build(ctx, j, p)
	switch {
	case err == nil:
		s.finalize(j, p, JobDone, out, "")
	case errors.Is(err, context.Canceled):
		s.finalize(j, p, JobCanceled, nil, "canceled")
	case errors.Is(err, context.DeadlineExceeded):
		s.finalize(j, p, JobFailed, nil, fmt.Sprintf("job deadline exceeded (%v)", s.o.JobTimeout))
	default:
		s.finalize(j, p, JobFailed, out, err.Error())
	}
}

// build runs the plan; a panic in the plan becomes the job's error.
func (s *Server) build(ctx context.Context, j *Job, p *jobPlan) (out []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("job panicked: %v", v)
		}
	}()
	return p.run(ctx, j)
}

// finalize commits the job's terminal state; runJob calls it exactly
// once per job.
func (s *Server) finalize(j *Job, p *jobPlan, state string, out []byte, errMsg string) {
	var deg []harness.DegradedCell
	if state == JobDone {
		deg = s.r.Degraded(j.Name, p.keys)
	}
	s.mu.Lock()
	s.finished = append(s.finished, j)
	// Counted before the state is visible: whoever sees the job terminal
	// also sees it gone from tusd_jobs_inflight.
	s.jobsCompleted[[2]string{j.Kind, state}]++
	s.jobsInflight.Add(-1)
	// Unregister the cells the job never saw complete. deliverCell, on
	// another job's worker, deletes from j.pending under j.mu alone, so
	// the set is walked under j.mu too (lock order s.mu -> j.mu, as in
	// Submit) and then dropped: a cell completing later finds nothing
	// pending and leaves the terminal job untouched.
	j.mu.Lock()
	for k := range j.pending {
		if w := s.byCell[k]; w != nil {
			delete(w, j)
			if len(w) == 0 {
				delete(s.byCell, k)
			}
		}
	}
	j.pending = nil
	j.state = state
	if out != nil {
		j.output = out
	}
	j.errMsg = errMsg
	j.degraded = deg
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.mu.Unlock()
	s.mu.Unlock()

	// Warn before done closes: whoever saw the job end saw its warning.
	if state == JobFailed {
		s.warnf("tusd: job %s (%s) failed: %s", j.ID, j.Name, errMsg)
	}
	if len(deg) > 0 {
		s.warnf("tusd: job %s (%s) degraded: %d cell(s) quarantined", j.ID, j.Name, len(deg))
	}
	v := j.view()
	data, _ := json.Marshal(v)
	j.mu.Lock()
	j.broadcast(sseEvent{name: state, data: data})
	j.mu.Unlock()
	close(j.done)
}

// Cancel requests cancellation of a job; terminal jobs are unaffected.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return nil, false
	}
	j.cancel()
	return j, true
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every registered job in creation order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b *Job) int { return a.seq - b.seq })
	return out
}

// StartDrain flips the server into draining mode: /healthz reports 503
// and new job submissions are refused. In-flight jobs keep running, and
// every job Submit admitted is one WaitIdle waits for.
func (s *Server) StartDrain() {
	s.mu.Lock()
	s.draining.Store(true)
	s.mu.Unlock()
}

// WaitIdle blocks until every job has left runJob — nothing builds
// anywhere else — or ctx expires.
func (s *Server) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.builds.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/figures", s.handleFigures)
	s.mux.HandleFunc("GET /v1/figures/{fig}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleJobOutput)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	// Live profiling of a running daemon: CPU/heap/goroutine profiles on
	// the same mux as the operational endpoints (tusd binds loopback-ish
	// harness ports, not the public internet). `go tool pprof
	// http://host/debug/pprof/profile` while a figure job runs is the
	// supported way to find simulator hot spots in situ.
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Tusd-Version", harness.Version)
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, harness.List())
}

// handleFigure is the synchronous convenience endpoint: it submits (or
// coalesces onto) a figure job, waits for it, and serves the exact
// bytes `tusbench -fig <n>` prints. Job accounting rides in X-Tusd-*
// headers so the body stays byte-identical to the CLI.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	fig, err := strconv.Atoi(r.PathValue("fig"))
	if err != nil {
		http.Error(w, "bad figure number", http.StatusBadRequest)
		return
	}
	j, coalesced, err := s.Submit(JobRequest{Kind: "figure", Fig: fig})
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away; the job keeps running (other clients may be
		// attached, and its cells warm the shared cache either way).
		return
	}
	// The reply sends counts only, so it reads them off the record (view
	// would format three timestamps); the keys are already canonical.
	j.mu.Lock()
	state, errMsg, data, ct := j.state, j.errMsg, j.output, j.contentType
	total, run, cached, degraded := j.cellsTotal, j.cellsRun, j.cellsCached, len(j.degraded)
	j.mu.Unlock()
	h := w.Header()
	h["X-Tusd-Job"] = []string{j.ID}
	h["X-Tusd-Coalesced"] = []string{strconv.FormatBool(coalesced)}
	h["X-Tusd-Cells-Total"] = []string{strconv.Itoa(total)}
	h["X-Tusd-Cells-Run"] = []string{strconv.Itoa(run)}
	h["X-Tusd-Cells-Cached"] = []string{strconv.Itoa(cached)}
	h["X-Tusd-Degraded"] = []string{strconv.Itoa(degraded)}
	switch state {
	case JobDone:
		h["Content-Type"] = []string{ct}
		w.Write(data)
	case JobCanceled:
		http.Error(w, "job canceled", http.StatusConflict)
	default:
		http.Error(w, "figure job failed: "+errMsg, http.StatusInternalServerError)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad job request: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, coalesced, err := s.Submit(req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.Header().Set("X-Tusd-Coalesced", strconv.FormatBool(coalesced))
	status := http.StatusAccepted
	if coalesced {
		status = http.StatusOK
	}
	writeJSON(w, status, j.view())
}

func writeSubmitError(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.view())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobOutput(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	data, ct, state := j.Output()
	switch state {
	case JobDone, JobFailed:
		if data == nil {
			http.Error(w, "job produced no output: "+j.view().Error, http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", ct)
		w.Write(data)
	case JobCanceled:
		http.Error(w, "job canceled", http.StatusConflict)
	default:
		http.Error(w, "job not finished", http.StatusConflict)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// handleJobEvents streams the job's progress as server-sent events:
// an initial `state` snapshot, `cell` events as the matrix completes,
// and a terminal `done`/`failed`/`canceled` event carrying the full
// job JSON, after which the stream closes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	ch, snap := j.subscribe()
	defer j.unsubscribe(ch)
	writeSSE(w, snap)
	fl.Flush()
	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	for {
		select {
		case ev := <-ch:
			writeSSE(w, ev)
			fl.Flush()
			if isTerminal(ev.name) {
				return
			}
		case <-j.done:
			// Drain any queued events. The terminal event is usually
			// among them and ends the stream; a subscriber that was too
			// slow or too late to be sent one gets the terminal
			// snapshot instead — exactly one either way.
			for {
				select {
				case ev := <-ch:
					writeSSE(w, ev)
					if isTerminal(ev.name) {
						fl.Flush()
						return
					}
				default:
					v := j.view()
					data, _ := json.Marshal(v)
					writeSSE(w, sseEvent{name: v.State, data: data})
					fl.Flush()
					return
				}
			}
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev sseEvent) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
