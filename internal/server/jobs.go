package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/modelcheck"
	"tusim/internal/supervise"
	"tusim/internal/workload"
)

// Job states. A job is terminal in exactly one of done/failed/canceled,
// and terminal states are immutable.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobRequest is the POST /v1/jobs body. Kind selects the job type;
// the other fields parameterize it:
//
//	{"kind":"figure","fig":9}
//	{"kind":"hist","sb":114}
//	{"kind":"cells","benches":["502.gcc5"],"mechs":["base","TUS"],"sbs":[114]}
//	{"kind":"litmus","progs":["SB","MP"],"mechs":["TUS"],"smoke":true}
type JobRequest struct {
	Kind    string   `json:"kind"`
	Fig     int      `json:"fig,omitempty"`
	SB      int      `json:"sb,omitempty"`
	Benches []string `json:"benches,omitempty"`
	Mechs   []string `json:"mechs,omitempty"`
	SBs     []int    `json:"sbs,omitempty"`
	Progs   []string `json:"progs,omitempty"`
	Smoke   bool     `json:"smoke,omitempty"`
}

// JobJSON is the wire form of a job's status.
type JobJSON struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	State string `json:"state"`
	// Key is the job's coalesce key, derived from the cells' identities
	// and the runner's scale: identical requests share it (and, while
	// one is in flight, share the job).
	Key   string `json:"key"`
	Error string `json:"error,omitempty"`
	// CellsTotal is the job's full simulation-cell matrix; CellsDone
	// counts first-time completions observed while this job was in
	// flight, split into CellsRun (simulated) and CellsCached (served
	// from the shared disk cache). A warm job completes with
	// cells_run == 0: the whole matrix came from cache or from cells
	// already memoized in-process.
	CellsTotal  int `json:"cells_total"`
	CellsDone   int `json:"cells_done"`
	CellsRun    int `json:"cells_run"`
	CellsCached int `json:"cells_cached"`
	// Coalesced counts later identical requests that attached to this
	// job instead of starting their own.
	Coalesced int `json:"coalesced"`
	// Degraded lists the job's own cells that are quarantined, which its
	// product therefore skipped; a response carrying this section is an
	// explicit partial result.
	Degraded   []harness.DegradedCell `json:"degraded,omitempty"`
	CreatedAt  string                 `json:"created_at"`
	StartedAt  string                 `json:"started_at,omitempty"`
	FinishedAt string                 `json:"finished_at,omitempty"`
	Seconds    float64                `json:"seconds,omitempty"`
}

// sseEvent is one server-sent event: a name and a JSON payload.
type sseEvent struct {
	name string
	data []byte
}

// Job is one scheduled unit of work. All mutable state is behind mu;
// done closes exactly once on the first terminal transition (a job born
// done shares one closed channel).
type Job struct {
	ID   string
	Kind string
	Name string
	Key  string
	seq  int // creation order

	mu          sync.Mutex
	state       string
	output      []byte
	contentType string
	errMsg      string
	degraded    []harness.DegradedCell
	cellsTotal  int
	pending     map[string]bool
	cellsDone   int
	cellsRun    int
	cellsCached int
	coalesced   int
	created     time.Time
	started     time.Time
	finished    time.Time
	subs        map[chan sseEvent]bool

	cancel context.CancelFunc
	done   chan struct{}
}

// view snapshots the job as wire JSON.
func (j *Job) view() JobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobJSON{
		ID:          j.ID,
		Kind:        j.Kind,
		Name:        j.Name,
		State:       j.state,
		Key:         j.Key,
		Error:       j.errMsg,
		CellsTotal:  j.cellsTotal,
		CellsDone:   j.cellsDone,
		CellsRun:    j.cellsRun,
		CellsCached: j.cellsCached,
		Coalesced:   j.coalesced,
		Degraded:    append([]harness.DegradedCell(nil), j.degraded...),
		CreatedAt:   j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		v.Seconds = j.finished.Sub(j.started).Seconds()
	}
	return v
}

// Output returns the job's result bytes and content type once terminal.
func (j *Job) Output() (data []byte, contentType string, state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.contentType, j.state
}

// broadcast sends ev to every subscriber without blocking: a slow SSE
// client drops intermediate cell events but always receives the
// terminal snapshot (the stream re-sends it from job.done).
func (j *Job) broadcast(ev sseEvent) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an SSE listener and returns its channel plus an
// initial snapshot event.
func (j *Job) subscribe() (chan sseEvent, sseEvent) {
	ch := make(chan sseEvent, 64)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = map[chan sseEvent]bool{}
	}
	j.subs[ch] = true
	snap := j.stateEventLocked()
	j.mu.Unlock()
	return ch, snap
}

// unsubscribe removes an SSE listener.
func (j *Job) unsubscribe(ch chan sseEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// stateEventLocked renders the job's current state as an event; callers
// hold mu.
func (j *Job) stateEventLocked() sseEvent {
	data, _ := json.Marshal(map[string]any{
		"state":        j.state,
		"cells_total":  j.cellsTotal,
		"cells_done":   j.cellsDone,
		"cells_run":    j.cellsRun,
		"cells_cached": j.cellsCached,
	})
	return sseEvent{name: "state", data: data}
}

// jobPlan is a validated, runnable job: its coalesce key, its distinct
// cells' harness.CellKeys (nil for litmus jobs, which do not go through
// the Runner), and the build function. A plan is immutable once
// compiled; the figure plans are shared by every figure request.
type jobPlan struct {
	kind        string
	name        string
	key         string
	keys        []string
	contentType string
	// total is the progress denominator: len(keys), or the model-check
	// cell count for litmus jobs.
	total int
	run   func(ctx context.Context, j *Job) ([]byte, error)
}

// plan validates a request against the registry and compiles it; a
// figure's plan was compiled by New.
func (s *Server) plan(req JobRequest) (*jobPlan, error) {
	switch req.Kind {
	case "figure":
		if p := s.figures[req.Fig]; p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("unknown figure %d (GET /v1/figures lists the servable set)", req.Fig)
	case "hist":
		sb := req.SB
		if sb == 0 {
			sb = 114
		}
		return s.planHist(sb)
	case "cells":
		return s.planCells(req)
	case "litmus":
		return s.planLitmus(req)
	}
	return nil, fmt.Errorf("unknown job kind %q (want figure, hist, cells, or litmus)", req.Kind)
}

// cellsKey derives the job's coalesce key from the harness Version, the
// kind, extra, the runner's scale, and the job's cell keys in plan
// order. Within one build a cell's machine configuration is a function
// of its harness.CellKey, so two requests coalesce exactly when they
// would claim the same singleflight slots and share every cache entry.
func (s *Server) cellsKey(kind, extra string, keys []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|seed=%d|ops=%d|pops=%d|check=%v", harness.Version, kind, extra, s.r.Seed, s.r.Ops, s.r.ParallelOps, s.r.Check)
	for _, k := range keys {
		io.WriteString(h, "|")
		io.WriteString(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// studyPlan compiles a Runner-backed job. Figure, hist and cells jobs
// are all this one plan: prefetch the study's cells under the job's
// context, then assemble and print. extra distinguishes jobs of one kind
// that share a matrix.
func (s *Server) studyPlan(kind, name, extra, contentType string, st harness.Study) *jobPlan {
	keys := harness.CellKeys(st.Cells())
	return &jobPlan{
		kind:        kind,
		name:        name,
		key:         s.cellsKey(kind, extra, keys),
		keys:        keys,
		contentType: contentType,
		total:       len(keys),
		run: func(ctx context.Context, _ *Job) ([]byte, error) {
			p, err := s.r.Build(ctx, st)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			p.Print(&buf, "")
			return buf.Bytes(), nil
		},
	}
}

func (s *Server) planHist(sb int) (*jobPlan, error) {
	if sb < 1 || sb > config.MaxStoreRing {
		return nil, fmt.Errorf("hist: sb must be in 1..%d, got %d", config.MaxStoreRing, sb)
	}
	name := fmt.Sprintf("hist@%d", sb)
	return s.studyPlan("hist", name, name, "text/plain; charset=utf-8", harness.HistStudy(sb)), nil
}

// cellRow is one cell-matrix result row.
type cellRow struct {
	Bench       string           `json:"bench"`
	Mech        config.Mechanism `json:"mech"`
	SB          int              `json:"sb"`
	Cycles      uint64           `json:"cycles,omitempty"`
	SBStallPct  float64          `json:"sb_stall_pct,omitempty"`
	EDP         float64          `json:"edp,omitempty"`
	Quarantined string           `json:"quarantined,omitempty"`
}

func (s *Server) planCells(req JobRequest) (*jobPlan, error) {
	if len(req.Benches) == 0 {
		return nil, fmt.Errorf("cells: benches is required")
	}
	mechs := req.Mechs
	if len(mechs) == 0 {
		mechs = []string{"base", "TUS"}
	}
	sbs := req.SBs
	if len(sbs) == 0 {
		sbs = []int{114}
	}
	var cells []harness.Cell
	for _, name := range req.Benches {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("cells: unknown benchmark %q (GET /v1/figures lists the servable set)", name)
		}
		for _, mn := range mechs {
			m, err := config.ParseMechanism(mn)
			if err != nil {
				return nil, fmt.Errorf("cells: %w", err)
			}
			for _, sb := range sbs {
				if sb < 1 || sb > config.MaxStoreRing {
					return nil, fmt.Errorf("cells: sb must be in 1..%d, got %d", config.MaxStoreRing, sb)
				}
				cells = append(cells, harness.Cell{Bench: b, Mech: m, SB: sb})
			}
		}
	}
	cells = harness.CellUnion(cells)
	return s.studyPlan("cells", fmt.Sprintf("cells(%d)", len(cells)), "", "application/json", cellMatrix(cells)), nil
}

// cellMatrix is the cells job's Study: the requested cells, assembled
// as one JSON row each in request order.
type cellMatrix []harness.Cell

func (m cellMatrix) Cells() []harness.Cell { return m }

func (m cellMatrix) Assemble(r *harness.Runner) (harness.Product, error) {
	rows := make([]cellRow, 0, len(m))
	for _, c := range m {
		row := cellRow{Bench: c.Bench.Name, Mech: c.Mech, SB: c.SB}
		res, err := r.Run(c.Bench, c.Mech, c.SB)
		var q *supervise.Quarantined
		switch {
		case err == nil:
			row.Cycles = res.Cycles
			row.SBStallPct = res.SBStallPct()
			row.EDP = res.EDP
		case errors.As(err, &q):
			// Quarantines surface per row instead of failing the job.
			row.Quarantined = err.Error()
		default:
			return nil, err
		}
		rows = append(rows, row)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return cellsJSON(append(data, '\n')), nil
}

// cellsJSON is an assembled cell matrix, already encoded.
type cellsJSON []byte

func (d cellsJSON) Print(w io.Writer, _ string) { w.Write(d) }

func (s *Server) planLitmus(req JobRequest) (*jobPlan, error) {
	selected, err := modelcheck.SelectTests(strings.Join(req.Progs, ","))
	if err != nil {
		return nil, fmt.Errorf("litmus: %w", err)
	}
	mechSpec := strings.Join(req.Mechs, ",")
	if mechSpec == "" {
		mechSpec = modelcheck.DefaultMechs
	}
	mechs, err := modelcheck.SelectMechs(mechSpec)
	if err != nil {
		return nil, fmt.Errorf("litmus: %w", err)
	}
	eo := modelcheck.Budget(req.Smoke)
	var progNames []string
	for _, lt := range selected {
		progNames = append(progNames, lt.Name)
	}
	extra := fmt.Sprintf("progs=%s|mechs=%s|smoke=%v", strings.Join(progNames, ","), mechSpec, req.Smoke)
	total := len(selected) * len(mechs)
	return &jobPlan{
		kind:        "litmus",
		name:        fmt.Sprintf("litmus(%d)", total),
		key:         s.cellsKey("litmus", extra, nil),
		contentType: "text/plain; charset=utf-8",
		total:       total,
		run: func(ctx context.Context, j *Job) ([]byte, error) {
			var buf bytes.Buffer
			unsound := 0
			done := 0
			for _, lt := range selected {
				for _, m := range mechs {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					rep, err := modelcheck.Check(lt, m, eo, modelcheck.Limits{MaxStates: modelcheck.DefaultMaxStates})
					if err != nil {
						return nil, err
					}
					rep.Write(&buf)
					if !rep.Sound() {
						unsound++
					}
					done++
					j.mu.Lock()
					j.cellEventLocked(fmt.Sprintf("%s/%v", lt.Name, m), false, 0, done, nil)
					j.mu.Unlock()
				}
			}
			if unsound > 0 {
				// The report text is still the job output; the error marks
				// the job failed so clients cannot mistake it for a pass.
				return buf.Bytes(), fmt.Errorf("unsound: %d litmus cell(s) produced TSO-forbidden behaviour", unsound)
			}
			return buf.Bytes(), nil
		},
	}, nil
}
