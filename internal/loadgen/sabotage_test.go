package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tusim/internal/harness"
)

// fakeTusd speaks just enough of tusd's HTTP surface for every check
// the loader makes, and tells the truth unless a field says otherwise.
// One sabotage row sets one field.
type fakeTusd struct {
	figure       string   // GET /v1/figures/9 body
	cellsRunHdr  string   // its X-Tusd-Cells-Run header
	metrics      []string // successive /metrics bodies; the last repeats
	jobStates    []string // successive states of a polled job; the last repeats
	distinctKeys bool     // every submission gets its own coalesce key
	events       string   // the whole event stream of a job
	stall        bool     // the stream goes quiet after sending events

	mu             sync.Mutex
	scrapes, polls int
	submitted      int
}

const fakeFigure = "Figure 9 (fake)\n"

func promText(inflight, cellsRun, corrupt int) string {
	return fmt.Sprintf("tusd_jobs_inflight %d\ntusd_cells_run_total %d\ntusd_cache_corrupt_total %d\n", inflight, cellsRun, corrupt)
}

func sseText(events ...string) string {
	var b strings.Builder
	for _, e := range events {
		name, data, _ := strings.Cut(e, " ")
		fmt.Fprintf(&b, "event: %s\ndata: %s\n\n", name, data)
	}
	return b.String()
}

var union9 = len(harness.FigureCellUnion(9))

func honestTusd() *fakeTusd {
	return &fakeTusd{
		figure:      fakeFigure,
		cellsRunHdr: "0",
		metrics:     []string{promText(0, union9, 0)},
		jobStates:   []string{"running", "done"},
		events:      sseText(`state {"state":"running"}`, `cell {}`, `done {"state":"done","cells_total":4,"cells_done":4}`),
	}
}

// restartedTusd is the honest daemon after the soak's restart: a fresh
// process on a warm cache has simulated nothing.
func restartedTusd() *fakeTusd {
	f := honestTusd()
	f.metrics = []string{promText(0, 0, 0)}
	return f
}

// next returns seq[*n] (the last element once *n runs past it) and
// advances *n.
func next(seq []string, n *int) string {
	i := *n
	*n++
	if i >= len(seq) {
		i = len(seq) - 1
	}
	return seq[i]
}

func (f *fakeTusd) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	job := func(id, state string) {
		key := "k"
		if f.distinctKeys {
			key += id
		}
		fmt.Fprintf(w, `{"id":%q,"kind":"fake","state":%q,"key":%q,"error":"as told"}`, id, state, key)
	}
	switch path := r.URL.Path; {
	case path == "/v1/figures/9":
		w.Header().Set("X-Tusd-Cells-Run", f.cellsRunHdr)
		fmt.Fprint(w, f.figure)
	case path == "/metrics":
		fmt.Fprint(w, next(f.metrics, &f.scrapes))
	case path == "/v1/jobs":
		f.submitted++
		job(fmt.Sprintf("j%d", f.submitted), "queued")
	case strings.HasSuffix(path, "/cancel"):
		job(strings.Split(path, "/")[3], "running")
	case strings.HasSuffix(path, "/events"):
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, f.events)
		if f.stall {
			w.(http.Flusher).Flush()
			f.mu.Unlock()
			<-r.Context().Done()
			f.mu.Lock()
		}
	case strings.HasPrefix(path, "/v1/jobs/"):
		job(strings.Split(path, "/")[3], next(f.jobStates, &f.polls))
	default:
		http.NotFound(w, r)
	}
}

// TestSabotage proves every documented invariant able to fail: one row
// per invariant, each a daemon that lies about one thing, each naming
// the violation it must draw. The same check against the honest fake
// must stay silent, so a row fails for its lie and nothing else.
func TestSabotage(t *testing.T) {
	ctx := context.Background()
	// mixed runs the one named op, once, through the real mixed phase
	// (worker loop, accounting, bracketing scrapes).
	mixed := func(name string) func(*Loader) error {
		return func(l *Loader) error {
			for _, o := range l.ops {
				if o.name == name {
					l.ops = []op{o}
				}
			}
			l.o.Requests, l.o.Concurrency = 1, 1
			return l.RunMixed(ctx)
		}
	}
	for _, tc := range []struct {
		name  string
		truth func() *fakeTusd // the daemon the check must pass against
		lie   func(*fakeTusd)  // what the row changes about it
		check func(*Loader) error
		want  string
	}{
		{"figure bytes differ from the CLI's", honestTusd, func(f *fakeTusd) { f.figure = "Figure 9 (off by a byte)\n" },
			mixed("figure"), "figure 9: response differs from canonical CLI bytes"},
		{"warm response simulated 3 cells", honestTusd, func(f *fakeTusd) { f.cellsRunHdr = "3" },
			func(l *Loader) error { return l.WarmSweep(ctx) }, `warm-phase X-Tusd-Cells-Run = "3", want 0`},
		{"cells_run_total one over the union", honestTusd, func(f *fakeTusd) { f.metrics = []string{promText(0, union9+1, 0)} },
			func(l *Loader) error { return l.CheckExactlyOnce(ctx, "t") }, fmt.Sprintf("tusd_cells_run_total = %d, want exactly %d", union9+1, union9)},
		{"jobs_inflight never reaches 0", honestTusd, func(f *fakeTusd) { f.metrics = []string{promText(1, union9, 0)} },
			func(l *Loader) error { return l.CheckExactlyOnce(ctx, "t") }, "daemon never quiesced (1 jobs inflight"},
		{"a corrupt cache entry was met", honestTusd, func(f *fakeTusd) { f.metrics = []string{promText(0, union9, 1)} },
			func(l *Loader) error { return l.CheckExactlyOnce(ctx, "t") }, "tusd_cache_corrupt_total = 1, want 0"},
		{"restarted daemon simulated 3 cells", restartedTusd, func(f *fakeTusd) { f.metrics = []string{promText(0, 3, 0)} },
			func(l *Loader) error { return l.CheckAllCached(ctx, "t") }, "all-cached t: tusd_cells_run_total = 3, want exactly 0"},
		{"counter goes backwards between two live scrapes", honestTusd, func(f *fakeTusd) {
			f.metrics = []string{"tusd_coalesced_total 7\n" + promText(0, union9, 0), "tusd_coalesced_total 6\n" + promText(0, union9, 0)}
		}, mixed("figure"), "metrics: counter series tusd_coalesced_total went backwards: 7 -> 6"},
		{"SSE stream closes with no terminal event", honestTusd, func(f *fakeTusd) { f.events = sseText(`state {}`, `cell {}`) },
			mixed("sse"), "stream closed after 2 events without a terminal event"},
		{"SSE stream stalls", honestTusd, func(f *fakeTusd) { f.events, f.stall = sseText(`state {}`), true },
			mixed("sse"), "stream stalled or broke after 1 events"},
		{"SSE terminal event leaves the matrix incomplete", honestTusd, func(f *fakeTusd) {
			f.events = sseText(`state {}`, `done {"state":"done","cells_total":4,"cells_done":3}`)
		}, mixed("sse"), "terminal cells_done 3 != cells_total 4"},
		{"SSE terminal event sent twice", honestTusd, func(f *fakeTusd) { f.events += sseText(`done {"state":"done"}`) },
			mixed("sse"), `"done" event follows the terminal "done" event`},
		{"SSE stream ends failed", honestTusd, func(f *fakeTusd) { f.events = sseText(`state {}`, `failed {"state":"failed"}`) },
			mixed("sse"), "events: job ended failed"},
		{"canceled job stays running", honestTusd, func(f *fakeTusd) { f.jobStates = []string{"running"} },
			mixed("cancel"), "canceled job j1: still running after"},
		{"canceled job ends failed", honestTusd, func(f *fakeTusd) { f.jobStates = []string{"failed"} },
			mixed("cancel"), "canceled job j1 (fake) ended failed (as told)"},
		{"plain job ends canceled", honestTusd, func(f *fakeTusd) { f.jobStates = []string{"canceled"} },
			mixed("cells"), "job j1 (fake) ended canceled"},
		{"storm submissions get different keys", honestTusd, func(f *fakeTusd) { f.distinctKeys = true },
			mixed("storm"), "disagree on coalesce key"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run applies the row's check to a loader pointed at f, with
			// the hang deadline cut from minutes to what a test can wait.
			run := func(f *fakeTusd) []string {
				ts := httptest.NewServer(f)
				defer ts.Close()
				l, err := New(Options{BaseURL: ts.URL, Seed: 3, Figs: []int{9}, References: map[int][]byte{9: []byte(fakeFigure)}})
				if err != nil {
					t.Fatal(err)
				}
				l.deadline, l.client.Timeout = 300*time.Millisecond, 300*time.Millisecond
				err = tc.check(l)
				v := l.Report().Violations
				if (err != nil) != (len(v) != 0) {
					t.Fatalf("check returned %v with violations %v", err, v)
				}
				return v
			}
			if v := run(tc.truth()); len(v) != 0 {
				t.Fatalf("honest daemon drew violations: %v", v)
			}
			liar := tc.truth()
			tc.lie(liar)
			v := run(liar)
			if len(v) != 1 || !strings.Contains(v[0], tc.want) {
				t.Fatalf("violations %q, want exactly one containing %q", v, tc.want)
			}
		})
	}
}
