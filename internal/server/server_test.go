package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tusim/internal/config"
	"tusim/internal/harness"
)

// testOps is deliberately tiny: server tests exercise scheduling,
// coalescing, and byte identity, not simulation fidelity (the harness
// golden suite owns that).
const (
	testOps  = 2500
	testPOps = 300
)

// allBenches is the ST SB-bound set: with a few SB sizes, a cells matrix
// big enough to still be running when a test cancels it.
var allBenches = []string{
	"502.gcc1", "502.gcc2", "502.gcc3", "502.gcc4", "502.gcc5",
	"505.mcf", "520.omnetpp", "557.xz", "tf.matmul", "tf.conv", "tf.embed",
}

func testRunner(t testing.TB, cacheDir string) *harness.Runner {
	t.Helper()
	r := harness.NewQuickRunner()
	r.Ops = testOps
	r.ParallelOps = testPOps
	r.Workers = 2
	if cacheDir != "" {
		c, err := harness.NewDiskCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		r.Cache = c
	}
	r.Supervisor = harness.NewSupervisor(0)
	return r
}

func newTestServer(t testing.TB, o Options) (*Server, *harness.Runner) {
	t.Helper()
	if o.Runner == nil {
		o.Runner = testRunner(t, t.TempDir())
	}
	s := New(o)
	return s, o.Runner
}

func waitJob(t *testing.T, j *Job, timeout time.Duration) JobJSON {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish in %v (state %s)", j.ID, timeout, j.view().State)
	}
	return j.view()
}

// getFigure serves one GET /v1/figures/{fig} in process and fails on
// any status but 200.
func getFigure(t testing.TB, h http.Handler, fig int) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/v1/figures/%d", fig), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/figures/%d = %d: %s", fig, w.Code, w.Body)
	}
	return w
}

// TestFigureByteIdentity is the tentpole guarantee: GET /v1/figures/9
// serves exactly the bytes `tusbench -fig 9` prints — cold (every cell
// simulated), under 8-way concurrent fan-in (matrix executed exactly
// once), and warm (cells_run == 0).
func TestFigureByteIdentity(t *testing.T) {
	// CLI reference: an independent runner at the same scale, no cache,
	// rendering through the exact code path tusbench's figure loop uses.
	var want bytes.Buffer
	if err := harness.RenderFigure(testRunner(t, ""), 9, &want); err != nil {
		t.Fatal(err)
	}

	s, r := newTestServer(t, Options{MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Cold: 8 concurrent requests for the same uncached figure.
	type reply struct {
		body []byte
		hdr  http.Header
		code int
	}
	replies := make([]reply, 8)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/figures/9")
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			replies[i] = reply{body, resp.Header, resp.StatusCode}
		}(i)
	}
	wg.Wait()

	nCells := len(harness.FigureCellUnion(9))
	for i, rp := range replies {
		if rp.code != http.StatusOK {
			t.Fatalf("req %d: status %d, body %s", i, rp.code, rp.body)
		}
		if !bytes.Equal(rp.body, want.Bytes()) {
			t.Fatalf("req %d: served figure differs from CLI bytes:\nserver:\n%s\nCLI:\n%s", i, rp.body, want.Bytes())
		}
	}
	// The matrix ran exactly once no matter how the 8 requests raced:
	// every fresh simulation is accounted in CacheStats.
	if cs := r.CacheStats(); cs.CellsRun != int64(nCells) {
		t.Fatalf("cold 8-way fan-in: cells_run = %d, want exactly %d", cs.CellsRun, nCells)
	}
	// Every request either created the one job or coalesced onto it.
	if jobs, co := len(s.Jobs()), int(s.coalescedN.Load()); jobs+co != 8 {
		t.Fatalf("jobs(%d) + coalesced(%d) != 8 requests", jobs, co)
	}

	// Warm: same bytes, zero cells simulated.
	resp, err := http.Get(ts.URL + "/v1/figures/9")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("warm fetch differs from CLI bytes")
	}
	if got := resp.Header.Get("X-Tusd-Cells-Run"); got != "0" {
		t.Fatalf("warm fetch X-Tusd-Cells-Run = %q, want 0", got)
	}
	if cs := r.CacheStats(); cs.CellsRun != int64(nCells) {
		t.Fatalf("warm fetch resimulated: cells_run = %d, want %d", cs.CellsRun, nCells)
	}
}

// TestWarmRequestIsBornDone: a request identical to a done figure job
// gets a job of its own that is born done with that job's bytes. It
// runs no cell, moves no gauge but the done counter, and starts no
// goroutine; its event stream still ends on exactly one done event. A
// canceled job's key is not served from: the next identical request
// builds.
func TestWarmRequestIsBornDone(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	cold := getFigure(t, h, 9)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	figuresDone := func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobsCompleted[[2]string{"figure", JobDone}]
	}
	doneBefore, goroutines := figuresDone(), runtime.NumGoroutine()
	ids := map[string]bool{cold.Header().Get("X-Tusd-Job"): true}
	var last string
	for i := 0; i < 50; i++ {
		w := getFigure(t, h, 9)
		last = w.Header().Get("X-Tusd-Job")
		if ids[last] {
			t.Fatalf("warm GET %d reused job %s", i, last)
		}
		ids[last] = true
		if co, run := w.Header().Get("X-Tusd-Coalesced"), w.Header().Get("X-Tusd-Cells-Run"); co != "false" || run != "0" {
			t.Fatalf("warm GET %d: X-Tusd-Coalesced %s, X-Tusd-Cells-Run %s, want false and 0", i, co, run)
		}
		if !bytes.Equal(w.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("warm GET %d: bytes differ from the cold body", i)
		}
		if n := s.JobsInflight(); n != 0 {
			t.Fatalf("warm GET %d: tusd_jobs_inflight %d, want 0", i, n)
		}
	}
	if n := figuresDone() - doneBefore; n != 50 {
		t.Fatalf("jobs_completed{figure,done} rose by %d over 50 warm GETs, want 50", n)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("goroutines grew from %d to %d over 50 warm GETs", goroutines, n)
	}

	ts := httptest.NewServer(h)
	defer ts.Close()
	if events, _ := followEvents(t, ts.URL, last, 10*time.Second); events[len(events)-1] != JobDone {
		t.Fatalf("born-done job %s streamed %v, want state ... done", last, events)
	}

	req := JobRequest{Kind: "cells", Benches: allBenches, SBs: []int{60}}
	first, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(first.ID)
	if v := waitJob(t, first, time.Minute); v.State != JobCanceled {
		t.Fatalf("canceled cells job ended %s (%s)", v.State, v.Error)
	}
	again, co, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, again, 2*time.Minute); co || again == first || v.State != JobDone || v.CellsRun == 0 {
		t.Fatalf("resubmit after cancel: coalesced %v, same job %v, state %s, cells_run %d; want a fresh job that builds and ends done",
			co, again == first, v.State, v.CellsRun)
	}
}

// TestWarmFigureAllocs pins what a memoized figure GET allocates in
// process, request and recorder included: a job record and the reply's
// headers, not a rebuilt figure.
func TestWarmFigureAllocs(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	h := s.Handler()
	getFigure(t, h, 9)
	if n := testing.AllocsPerRun(100, func() { getFigure(t, h, 9) }); n > 64 {
		t.Fatalf("warm GET /v1/figures/9 allocates %.0f times, want <= 64", n)
	}
}

// TestSubmitCoalescesIdenticalRequests pins the singleflight contract
// at the Submit level, where ordering is deterministic: the first
// request creates the job, the next seven attach to it.
func TestSubmitCoalescesIdenticalRequests(t *testing.T) {
	s, r := newTestServer(t, Options{MaxJobs: 2})
	req := JobRequest{Kind: "cells", Benches: []string{"502.gcc1", "502.gcc2"}, Mechs: []string{"base", "TUS"}}

	first, co, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if co {
		t.Fatal("first submit reported coalesced")
	}
	for i := 0; i < 7; i++ {
		j, co, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !co || j != first {
			t.Fatalf("submit %d: coalesced=%v job=%s, want attach to %s", i, co, j.ID, first.ID)
		}
	}
	v := waitJob(t, first, 2*time.Minute)
	if v.State != JobDone {
		t.Fatalf("job state %s (%s), want done", v.State, v.Error)
	}
	if v.Coalesced != 7 {
		t.Fatalf("job coalesced = %d, want 7", v.Coalesced)
	}
	if s.coalescedN.Load() != 7 {
		t.Fatalf("server coalesce counter = %d, want 7", s.coalescedN.Load())
	}
	if cs := r.CacheStats(); cs.CellsRun != 4 {
		t.Fatalf("cells_run = %d, want 4 (2 benches x 2 mechs, exactly once)", cs.CellsRun)
	}
	if v.CellsDone != 4 || v.CellsRun != 4 || v.CellsTotal != 4 {
		t.Fatalf("job progress done=%d run=%d total=%d, want 4/4/4", v.CellsDone, v.CellsRun, v.CellsTotal)
	}

	// A different request must not coalesce.
	other, co, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"505.mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if co || other == first {
		t.Fatal("distinct request coalesced onto the wrong job")
	}
	waitJob(t, other, 2*time.Minute)

	// The cells output itself is deterministic JSON.
	data, ct, _ := first.Output()
	if ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var rows []cellRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if len(rows) != 4 || rows[0].Cycles == 0 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
}

// TestCoalesceKey pins what the coalesce key separates: the same
// request keys the same, while the kind, the cells' order and the
// runner's scale each make a different key.
func TestCoalesceKey(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	plan := func(s *Server, req JobRequest) *jobPlan {
		t.Helper()
		p, err := s.plan(req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fig9 := plan(s, JobRequest{Kind: "figure", Fig: 9})
	if again := plan(s, JobRequest{Kind: "figure", Fig: 9}); again.key != fig9.key {
		t.Fatalf("the same request keyed %s then %s", fig9.key, again.key)
	}

	// Fig. 9 and hist@114 read the same 55 cells in the same order, so
	// only the job's kind and name tell them apart.
	hist := plan(s, JobRequest{Kind: "hist", SB: 114})
	if len(fig9.keys) != 55 || !slices.Equal(fig9.keys, hist.keys) {
		t.Fatalf("fig9 cells %v, hist@114 cells %v: want the same 55", fig9.keys, hist.keys)
	}
	if fig9.key == hist.key {
		t.Fatal("fig9 and hist@114 share a coalesce key")
	}

	// A cells job's rows come out in request order.
	ab := plan(s, JobRequest{Kind: "cells", Benches: []string{"502.gcc1", "505.mcf"}})
	ba := plan(s, JobRequest{Kind: "cells", Benches: []string{"505.mcf", "502.gcc1"}})
	if ab.key == ba.key {
		t.Fatal("cells jobs in different orders share a coalesce key")
	}

	// The runner's scale is part of the key.
	r := testRunner(t, "")
	r.Seed++
	if other := plan(New(Options{Runner: r}), JobRequest{Kind: "figure", Fig: 9}); other.key == fig9.key {
		t.Fatal("runners with different seeds share a coalesce key")
	}
}

// TestCancel covers the two cancellation shapes that never reach the
// Runner: a queued job dies immediately, and a running litmus job stops
// between model-check cells. TestStopFreesSlot covers Runner-backed
// jobs.
func TestCancel(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 1})

	// Occupy the single pool slot.
	blocker, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc1", "502.gcc2", "502.gcc3"}})
	if err != nil {
		t.Fatal(err)
	}
	// This one queues behind it; cancel must not wait for the slot.
	queued, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"505.mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	v := waitJob(t, queued, 30*time.Second)
	if v.State != JobCanceled {
		t.Fatalf("queued job state %s, want canceled", v.State)
	}
	if v := waitJob(t, blocker, 2*time.Minute); v.State != JobDone {
		t.Fatalf("blocker state %s (%s), want done", v.State, v.Error)
	}

	// Cancel mid-run: the litmus job checks its context between cells.
	lit, _, err := s.Submit(JobRequest{Kind: "litmus"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(lit.ID); !ok {
		t.Fatal("cancel: litmus job not found")
	}
	v = waitJob(t, lit, 2*time.Minute)
	if v.State != JobCanceled {
		t.Fatalf("litmus job state %s, want canceled", v.State)
	}
	if _, ok := s.Cancel("j999"); ok {
		t.Fatal("cancel of unknown job reported ok")
	}
}

// countCells wraps the server's OnCellDone hook (installed by New) so a
// test can see every cell completion: all of them, and the freshly
// simulated ones.
func countCells(r *harness.Runner) (all, fresh *atomic.Int64) {
	all, fresh = new(atomic.Int64), new(atomic.Int64)
	hook := r.OnCellDone
	r.OnCellDone = func(key string, cached bool, d time.Duration, err error) {
		all.Add(1)
		if err == nil && !cached {
			fresh.Add(1)
		}
		hook(key, cached, d, err)
	}
	return all, fresh
}

// firstCellEvent blocks until the job reports its first completed cell.
func firstCellEvent(t *testing.T, j *Job) {
	t.Helper()
	ch, _ := j.subscribe()
	defer j.unsubscribe(ch)
	for deadline := time.After(time.Minute); ; {
		select {
		case ev := <-ch:
			if ev.name == "cell" {
				return
			}
		case <-j.done:
			t.Fatalf("job %s ended (%s) before its first cell event", j.ID, j.view().State)
		case <-deadline:
			t.Fatalf("job %s: no cell event within a minute", j.ID)
		}
	}
}

// TestStopFreesSlot is the one-cancel-path contract for Runner-backed
// jobs: a job stopped mid-prefetch — by DELETE or by -job-timeout —
// turns terminal and gives its pool slot back within one cell's
// duration. With one slot and one worker, a queued one-cell job gets to
// run before more than two further cells of the stopped job complete
// (the one in flight, plus one claimed while the cancel was landing),
// the stopped job's matrix stays incomplete, and nothing keeps
// simulating behind WaitIdle's back.
func TestStopFreesSlot(t *testing.T) {
	idle := func(t *testing.T, s *Server) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.WaitIdle(ctx); err != nil {
			t.Fatal(err)
		}
		if n := s.JobsInflight(); n != 0 {
			t.Fatalf("JobsInflight = %d after WaitIdle, want 0", n)
		}
	}
	for _, tc := range []struct {
		name string
		req  JobRequest
	}{
		{"figure", JobRequest{Kind: "figure", Fig: 10}},
		{"cells", JobRequest{Kind: "cells", Benches: allBenches, SBs: []int{114, 140, 171}}},
	} {
		t.Run("cancel/"+tc.name, func(t *testing.T) {
			r := testRunner(t, "")
			r.Workers = 1
			s, _ := newTestServer(t, Options{Runner: r, MaxJobs: 1})
			all, _ := countCells(r)

			big, _, err := s.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			firstCellEvent(t, big)
			// Disjoint from both big matrices, so it has one cell to run.
			small, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc1"}, Mechs: []string{"base"}, SBs: []int{32}})
			if err != nil {
				t.Fatal(err)
			}
			before := all.Load()
			s.Cancel(big.ID)

			if v := waitJob(t, small, time.Minute); v.State != JobDone {
				t.Fatalf("queued job ended %s (%s), want done", v.State, v.Error)
			}
			if ran := all.Load() - before - 1; ran > 2 {
				t.Fatalf("%d cells of the canceled job completed before the queued job got the slot, want <= 2", ran)
			}
			v := waitJob(t, big, time.Minute)
			if v.State != JobCanceled {
				t.Fatalf("canceled job ended %s (%s), want canceled", v.State, v.Error)
			}
			if v.CellsDone >= v.CellsTotal {
				t.Fatalf("canceled job completed its whole matrix (%d/%d)", v.CellsDone, v.CellsTotal)
			}
			idle(t, s)
		})
	}

	// -job-timeout takes the same path: the job fails, the slot comes
	// back, the rest of the matrix is never simulated, and no cell is
	// left half-published.
	t.Run("timeout/figure", func(t *testing.T) {
		r := testRunner(t, "")
		r.Workers = 1
		s, _ := newTestServer(t, Options{Runner: r, MaxJobs: 1, JobTimeout: 50 * time.Millisecond})
		all, fresh := countCells(r)
		j, _, err := s.Submit(JobRequest{Kind: "figure", Fig: 10})
		if err != nil {
			t.Fatal(err)
		}
		v := waitJob(t, j, time.Minute)
		if v.State != JobFailed || !strings.Contains(v.Error, "job deadline exceeded") {
			t.Fatalf("timed-out job ended %s (%q), want failed: job deadline exceeded", v.State, v.Error)
		}
		idle(t, s)
		if n := all.Load(); n >= int64(v.CellsTotal) {
			t.Fatalf("%d of %d cells completed: the build outlived its job", n, v.CellsTotal)
		}
		if cs := r.CacheStats(); cs.CellsRun != fresh.Load() {
			t.Fatalf("cells_run = %d, but %d fresh completions were announced", cs.CellsRun, fresh.Load())
		}
	})
}

// TestCancelStopsRunningCell: cancel stops the cell a job is
// simulating, not only the claiming of its next one. With one pool slot
// and one worker, a one-cell job on a 16-core cell that takes seconds
// uncancelled turns canceled, and a queued job is admitted, within 1 s
// of the cancel.
func TestCancelStopsRunningCell(t *testing.T) {
	r := testRunner(t, "")
	r.Workers = 1
	r.ParallelOps = 100_000 // ~3 s of simulation uncancelled
	s, _ := newTestServer(t, Options{Runner: r, MaxJobs: 1})
	big, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"ferret"}, Mechs: []string{"TUS"}, SBs: []int{114}})
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc1"}, Mechs: []string{"base"}, SBs: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel once the cell simulates: trace generation is not stoppable.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Minute); !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*System).Run(")); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) || big.terminal() {
			t.Fatalf("job %s never started simulating (%s)", big.ID, big.view().State)
		}
	}
	start := time.Now()
	s.Cancel(big.ID)
	for small.view().State == JobQueued {
		if time.Since(start) > time.Second {
			t.Fatal("queued job not admitted within 1s of the cancel")
		}
		time.Sleep(time.Millisecond)
	}
	if v := waitJob(t, big, time.Second); v.State != JobCanceled {
		t.Fatalf("canceled job ended %s (%s), want canceled", v.State, v.Error)
	}
	if v := waitJob(t, small, time.Minute); v.State != JobDone {
		t.Fatalf("queued job ended %s (%s), want done", v.State, v.Error)
	}
}

// TestCancelWhileSharingCells is the -race regression for finalize: a
// job turns terminal (and unregisters its pending cells) while another
// job's workers are still delivering completions of cells both jobs
// wait on. Each round pairs a hist job with a cells job over the same
// fresh matrix and cancels the cells job mid-run; the hist job must
// still see every cell. The window is a few microseconds per cancel, so
// a clean run proves little on its own — the detector has to see it.
func TestCancelWhileSharingCells(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 2})
	for sb := 40; sb < 46; sb++ {
		hist, _, err := s.Submit(JobRequest{Kind: "hist", SB: sb})
		if err != nil {
			t.Fatal(err)
		}
		cells, _, err := s.Submit(JobRequest{Kind: "cells", Benches: allBenches, Mechs: []string{"base", "SSB", "CSB", "SPB", "TUS"}, SBs: []int{sb}})
		if err != nil {
			t.Fatal(err)
		}
		firstCellEvent(t, cells)
		s.Cancel(cells.ID)
		if v := waitJob(t, cells, time.Minute); v.State != JobCanceled {
			t.Fatalf("sb %d: cells job ended %s (%s), want canceled", sb, v.State, v.Error)
		}
		if v := waitJob(t, hist, 2*time.Minute); v.State != JobDone || v.CellsDone != v.CellsTotal {
			t.Fatalf("sb %d: hist job %s (%s) %d/%d cells, want done and complete", sb, v.State, v.Error, v.CellsDone, v.CellsTotal)
		}
	}
}

// TestDegradedIsTheJobsOwnCells: a job reports exactly its own cells
// that are quarantined. Fig. 11 reads the poisoned SB-bound cell and
// says so; Fig. 12 (Parsec) never reads it and must not inherit it just
// because both figures contain an EDP panel at 114 entries.
func TestDegradedIsTheJobsOwnCells(t *testing.T) {
	r := testRunner(t, "")
	const poisoned = "505.mcf/TUS/114"
	r.Supervisor.Quarantine(poisoned, "preloaded by the test")
	s, _ := newTestServer(t, Options{Runner: r, MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ fig, degraded int }{{11, 1}, {12, 0}} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/figures/%d", ts.URL, tc.fig))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fig %d: status %d", tc.fig, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Tusd-Degraded"); got != fmt.Sprint(tc.degraded) {
			t.Fatalf("fig %d: X-Tusd-Degraded = %q, want %d", tc.fig, got, tc.degraded)
		}
		j, ok := s.Job(resp.Header.Get("X-Tusd-Job"))
		if !ok {
			t.Fatalf("fig %d: job not in registry", tc.fig)
		}
		deg := j.view().Degraded
		if len(deg) != tc.degraded {
			t.Fatalf("fig %d: degraded = %+v, want %d entries", tc.fig, deg, tc.degraded)
		}
		if tc.degraded == 1 && (deg[0].Cell != poisoned || deg[0].Reason == "") {
			t.Fatalf("fig %d: degraded entry %+v does not name %s with a reason", tc.fig, deg[0], poisoned)
		}
	}
}

// TestFigureReplyHeaders pins every header a figure reply carries, on
// a cold GET, a warm GET and a degraded figure: the job's ID and cell
// counts as its record holds them, and the body's content type.
func TestFigureReplyHeaders(t *testing.T) {
	check := func(s *Server, fig int, want map[string]string) {
		t.Helper()
		w := getFigure(t, s.Handler(), fig)
		j, ok := s.Job(w.Header().Get("X-Tusd-Job"))
		if !ok {
			t.Fatalf("fig %d: X-Tusd-Job %q names no job", fig, w.Header().Get("X-Tusd-Job"))
		}
		v := j.view()
		full := http.Header{
			"Content-Type":        {"text/plain; charset=utf-8"},
			"X-Tusd-Job":          {v.ID},
			"X-Tusd-Coalesced":    {"false"},
			"X-Tusd-Cells-Total":  {strconv.Itoa(v.CellsTotal)},
			"X-Tusd-Cells-Run":    {strconv.Itoa(v.CellsRun)},
			"X-Tusd-Cells-Cached": {strconv.Itoa(v.CellsCached)},
			"X-Tusd-Degraded":     {strconv.Itoa(len(v.Degraded))},
		}
		for k, val := range want {
			if full.Get(k) != val {
				t.Fatalf("fig %d: the job record says %s %q, want %q", fig, k, full.Get(k), val)
			}
		}
		if !reflect.DeepEqual(w.Header(), full) {
			t.Fatalf("fig %d: headers %v, want %v", fig, w.Header(), full)
		}
	}
	s, _ := newTestServer(t, Options{})
	cold := getFigure(t, s.Handler(), 9).Header().Get("X-Tusd-Cells-Total")
	check(s, 9, map[string]string{"X-Tusd-Job": "j2", "X-Tusd-Cells-Total": cold, "X-Tusd-Cells-Run": "0", "X-Tusd-Degraded": "0"})

	s, _ = newTestServer(t, Options{})
	check(s, 9, map[string]string{"X-Tusd-Job": "j1", "X-Tusd-Cells-Run": cold, "X-Tusd-Cells-Cached": "0", "X-Tusd-Degraded": "0"})

	r := testRunner(t, "")
	r.Supervisor.Quarantine("505.mcf/TUS/114", "preloaded by the test")
	s, _ = newTestServer(t, Options{Runner: r})
	check(s, 11, map[string]string{"X-Tusd-Job": "j1", "X-Tusd-Degraded": "1"})
}

// TestDegradedWarnsOnce: a degraded product warns when it is built,
// not each time it is served, while every reply still says it is
// degraded.
func TestDegradedWarnsOnce(t *testing.T) {
	r := testRunner(t, "")
	r.Supervisor.Quarantine("505.mcf/TUS/114", "preloaded by the test")
	var mu sync.Mutex
	var warnings []string
	s, _ := newTestServer(t, Options{Runner: r, Warnf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}})
	for i := 0; i < 5; i++ {
		if got := getFigure(t, s.Handler(), 11).Header().Get("X-Tusd-Degraded"); got != "1" {
			t.Fatalf("GET %d of Fig. 11: X-Tusd-Degraded = %q, want 1", i, got)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(warnings) != 1 || !strings.Contains(warnings[0], "degraded") {
		t.Fatalf("five GETs of a degraded Fig. 11 warned %q, want one degraded warning", warnings)
	}
}

// TestDrainUnderLoad: draining refuses new work, flips /healthz to 503,
// and WaitIdle returns only after in-flight jobs finish.
func TestDrainUnderLoad(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 1})
	j, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc4"}})
	if err != nil {
		t.Fatal(err)
	}
	s.StartDrain()

	if _, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"505.mcf"}}); !errors.Is(err, errDraining) {
		t.Fatalf("submit during drain: err = %v, want errDraining", err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", rec.Code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if v := j.view(); v.State != JobDone {
		t.Fatalf("in-flight job after drain: %s (%s), want done", v.State, v.Error)
	}
	// An expired wait reports the timeout instead of hanging.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	s2, _ := newTestServer(t, Options{MaxJobs: 1})
	if _, _, err := s2.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc5"}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.WaitIdle(expired); err == nil {
		t.Fatal("WaitIdle with dead context returned nil")
	}
	if err := s2.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDrainAdmitsNoLateJob races submitters against StartDrain and
// WaitIdle: a Submit either is refused or starts a job that WaitIdle
// waits for, so once both have returned no job is queued or running.
func TestDrainAdmitsNoLateJob(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, _ := newTestServer(t, Options{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// One fresh cell per job: each takes a moment to build.
				for sb := 8 + w; sb < 24; sb += 4 {
					_, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc1"}, Mechs: []string{"base"}, SBs: []int{sb}})
					if errors.Is(err, errDraining) {
						return
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		// Vary where in the submitters' loops the drain lands.
		time.Sleep(time.Duration(round%4) * 25 * time.Microsecond)
		s.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := s.WaitIdle(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for _, j := range s.Jobs() {
			if !j.terminal() {
				t.Fatalf("round %d: job %s is %s after WaitIdle returned", round, j.ID, j.view().State)
			}
		}
	}
}

// sseReader feeds a stream's lines through a channel so every read can
// carry an explicit deadline: a stalled stream fails the test with a
// diagnosis (how many events arrived, what came last) instead of
// blocking a raw Scan until the whole suite times out.
type sseReader struct {
	lines chan string
	errc  chan error
}

func newSSEReader(body io.Reader) *sseReader {
	r := &sseReader{lines: make(chan string, 64), errc: make(chan error, 1)}
	go func() {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			r.lines <- sc.Text()
		}
		r.errc <- sc.Err()
		close(r.lines)
	}()
	return r
}

// next returns the next line within the deadline; ok=false is clean EOF.
func (r *sseReader) next(t *testing.T, deadline time.Duration, progress func() string) (string, bool) {
	t.Helper()
	select {
	case line, ok := <-r.lines:
		if !ok {
			if err := <-r.errc; err != nil {
				t.Fatalf("sse read (%s): %v", progress(), err)
			}
			return "", false
		}
		return line, true
	case <-time.After(deadline):
		t.Fatalf("sse read: no line within %v (%s) — stalled stream", deadline, progress())
		return "", false
	}
}

// followEvents reads a job's event stream to EOF and returns the event
// names in order plus the last data payload. Every read carries its own
// deadline so a wedged stream is diagnosed, not waited out. It holds
// every stream to the terminal contract: opens with a state snapshot,
// carries exactly one terminal event, and that event is the last.
func followEvents(t *testing.T, base, id string, deadline time.Duration) (events []string, lastData string) {
	t.Helper()
	es, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	r := newSSEReader(es.Body)
	progress := func() string { return fmt.Sprintf("job %s after events %v", id, events) }
	for {
		line, ok := r.next(t, deadline, progress)
		if !ok {
			break
		}
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if len(events) < 2 || events[0] != "state" {
		t.Fatalf("job %s: stream did not open with a state snapshot and go on: %v", id, events)
	}
	for i, e := range events {
		if isTerminal(e) != (i == len(events)-1) {
			t.Fatalf("job %s: want exactly one terminal event, in last place: %v", id, events)
		}
	}
	return events, lastData
}

func postJob(t *testing.T, base string, req JobRequest) JobJSON {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	return v
}

// TestSSEProgress streams a cold figure job end to end over real HTTP:
// the stream opens with a state snapshot, carries per-cell progress
// events, and closes with the terminal job JSON — once.
func TestSSEProgress(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v := postJob(t, ts.URL, JobRequest{Kind: "figure", Fig: 9})
	events, lastData := followEvents(t, ts.URL, v.ID, 30*time.Second)
	if events[len(events)-1] != JobDone {
		t.Fatalf("stream did not close with done: %v", events)
	}
	cellEvents := 0
	for _, e := range events {
		if e == "cell" {
			cellEvents++
		}
	}
	if cellEvents == 0 {
		t.Fatalf("no per-cell progress events in stream: %v", events)
	}
	var final JobJSON
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatalf("terminal event payload: %v", err)
	}
	if final.State != JobDone || final.CellsDone != final.CellsTotal || final.CellsTotal != len(harness.FigureCellUnion(9)) {
		t.Fatalf("terminal payload %+v", final)
	}

	// The finished job's output endpoint serves the figure bytes.
	out, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Body.Close()
	data, _ := io.ReadAll(out.Body)
	if !bytes.Contains(data, []byte("Figure 9")) {
		t.Fatalf("job output does not look like figure 9:\n%s", data)
	}

	// Re-subscribing to the now-terminal job must deliver the state
	// snapshot plus a terminal resend immediately and close the stream —
	// a slow or late subscriber always ends on the terminal event.
	if events2, _ := followEvents(t, ts.URL, v.ID, 10*time.Second); events2[len(events2)-1] != JobDone {
		t.Fatalf("terminal-job replay stream: %v, want state ... done", events2)
	}

	// A live subscriber is sent the terminal event and then sees the job
	// finish; which of the two the handler notices first is a coin toss
	// per stream, so follow enough short cold jobs (one fresh cell each)
	// that a handler answering both with a terminal event cannot pass.
	for i := 0; i < 60; i++ {
		v := postJob(t, ts.URL, JobRequest{Kind: "cells", Benches: []string{"520.omnetpp"}, Mechs: []string{"TUS"}, SBs: []int{8 + i}})
		followEvents(t, ts.URL, v.ID, 30*time.Second)
	}
}

// TestLitmusJob runs the model-check smoke suite through the job layer.
func TestLitmusJob(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 1})
	j, _, err := s.Submit(JobRequest{Kind: "litmus", Progs: []string{"SB", "MP"}, Mechs: []string{"TUS"}, Smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	v := waitJob(t, j, 2*time.Minute)
	if v.State != JobDone {
		t.Fatalf("litmus job %s (%s), want done", v.State, v.Error)
	}
	if v.CellsTotal != 2 || v.CellsDone != 2 {
		t.Fatalf("litmus progress %d/%d, want 2/2", v.CellsDone, v.CellsTotal)
	}
	data, _, _ := j.Output()
	if !bytes.Contains(data, []byte("SB")) || !bytes.Contains(data, []byte("MP")) {
		t.Fatalf("litmus output missing reports:\n%s", data)
	}
}

// TestMetricsAndRegistryEndpoints scrapes /metrics after real activity
// and spot-checks the HTTP registry and error paths.
func TestMetricsAndRegistryEndpoints(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{Kind: "cells", Benches: []string{"520.omnetpp"}, Mechs: []string{"base", "TUS"}}
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j, 2*time.Minute)
	if _, co, err := s.Submit(req); err != nil || co {
		// The job is terminal, so this resubmission starts a fresh
		// (instant, fully memoized) job rather than coalescing.
		t.Fatalf("resubmit after terminal: co=%v err=%v", co, err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		fmt.Sprintf("tusd_info{harness_version=%q} 1", harness.Version),
		"tusd_jobs_inflight",
		`tusd_jobs_completed_total{kind="cells",status="done"}`,
		"tusd_coalesced_total",
		"tusd_cells_run_total 2",
		"tusd_cells_cached_total",
		"tusd_cache_corrupt_total",
		"tusd_cache_write_failed_total 0",
		"tusd_cell_seconds_bucket{le=\"+Inf\"} 2",
		"tusd_cell_seconds_sum",
		"tusd_cell_seconds_count 2",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// Registry: GET /v1/figures serves the same inventory as -list.
	fresp, err := http.Get(ts.URL + "/v1/figures")
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var list harness.ListReport
	if err := json.NewDecoder(fresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.HarnessVersion != harness.Version || len(list.Figures) != 8 || len(list.Benches) == 0 {
		t.Fatalf("inventory %+v", list)
	}

	// Error paths.
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/v1/figures/99", http.StatusBadRequest},
		{"GET", "/v1/jobs/nope", http.StatusNotFound},
		{"POST", "/v1/jobs/nope/cancel", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
	}
	badBody := strings.NewReader(`{"kind":"nope"}`)
	bresp, err := http.Post(ts.URL+"/v1/jobs", "application/json", badBody)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind submit = %d, want 400", bresp.StatusCode)
	}
}

// TestAPIErrorPaths pins every client-error response: status code AND
// body shape, so error messages stay part of the API contract.
func TestAPIErrorPaths(t *testing.T) {
	s, r := newTestServer(t, Options{MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sbRange := fmt.Sprintf("sb must be in 1..%d", config.MaxStoreRing)
	tests := []struct {
		name         string
		method, path string
		body         string
		status       int
		wantBody     string
	}{
		{"non-numeric figure", "GET", "/v1/figures/abc", "", http.StatusBadRequest, "bad figure number"},
		{"unknown figure", "GET", "/v1/figures/99", "", http.StatusBadRequest, "unknown figure 99"},
		{"malformed JSON submit", "POST", "/v1/jobs", `{not json`, http.StatusBadRequest, "bad job request"},
		{"unknown job kind", "POST", "/v1/jobs", `{"kind":"nope"}`, http.StatusBadRequest, `unknown job kind "nope"`},
		{"figure job for unknown figure", "POST", "/v1/jobs", `{"kind":"figure","fig":99}`, http.StatusBadRequest, "unknown figure 99"},
		{"hist with negative sb", "POST", "/v1/jobs", `{"kind":"hist","sb":-5}`, http.StatusBadRequest, sbRange},
		// An SB the machine cannot build is refused before any cell is
		// planned: it would otherwise fail config validation in every
		// cell and quarantine each one for the life of the process.
		{"hist with sb past the store ring", "POST", "/v1/jobs", fmt.Sprintf(`{"kind":"hist","sb":%d}`, config.MaxStoreRing+1), http.StatusBadRequest, sbRange},
		{"cells with sb past the store ring", "POST", "/v1/jobs", fmt.Sprintf(`{"kind":"cells","benches":["502.gcc1"],"sbs":[114,%d]}`, config.MaxStoreRing+1), http.StatusBadRequest, sbRange},
		{"status of unknown job", "GET", "/v1/jobs/nope", "", http.StatusNotFound, "no such job"},
		{"output of unknown job", "GET", "/v1/jobs/nope/output", "", http.StatusNotFound, "no such job"},
		{"events of unknown job", "GET", "/v1/jobs/nope/events", "", http.StatusNotFound, "no such job"},
		{"cancel of unknown job", "POST", "/v1/jobs/nope/cancel", "", http.StatusNotFound, "no such job"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var rdr io.Reader
			if tc.body != "" {
				rdr = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, rdr)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("%s %s = %d, want %d (body %s)", tc.method, tc.path, resp.StatusCode, tc.status, body)
			}
			if !bytes.Contains(body, []byte(tc.wantBody)) {
				t.Fatalf("%s %s body %q does not contain %q", tc.method, tc.path, body, tc.wantBody)
			}
		})
	}
	if q := r.Supervisor.QuarantinedCells(); len(q) != 0 {
		t.Fatalf("refused requests quarantined %d cell(s): %v", len(q), q)
	}

	// Output of a queued (unfinished) job is 409, not a hang or a 200
	// with partial bytes. MaxJobs is 1, so a heavy blocker (the full
	// bench set at three SB points, 66 cells) pins the pool slot long
	// enough that the second job stays queued through the checks below.
	blocker, _, err := s.Submit(JobRequest{Kind: "cells", Benches: allBenches, SBs: []int{114, 140, 171}})
	if err != nil {
		t.Fatal(err)
	}
	// The queued job uses SB 32, disjoint from the blocker's matrix:
	// none of its 22 cells are memoized, so even if the pool admits it
	// in the same instant the cancel lands, the build cannot finish all
	// cells before the cancel below commits — runJob observes the
	// canceled context mid-build and the terminal state stays
	// deterministically canceled. For the job to end "done" instead,
	// all 88 cells of both jobs would have to simulate inside the
	// in-process window between the HTTP read below and s.Cancel.
	queued, _, err := s.Submit(JobRequest{Kind: "cells", Benches: allBenches, SBs: []int{32}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !bytes.Contains(body, []byte("job not finished")) {
		t.Fatalf("output of queued job = %d %q, want 409 'job not finished'", resp.StatusCode, body)
	}

	// Cancel the queued job while the blocker still owns the only pool
	// slot. The cancellation is committed through the API — on a
	// single-CPU runtime an HTTP round-trip can be starved by the
	// spinning build workers until the blocker finishes, losing the
	// race — and the HTTP layer then pins the terminal contract: a
	// cancel POST on a terminal job is a 200 no-op reporting the
	// immutable canceled state.
	s.Cancel(queued.ID)
	if v := waitJob(t, queued, 30*time.Second); v.State != JobCanceled {
		t.Fatalf("canceled job ended %s, want canceled", v.State)
	}
	cresp, err := http.Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cv JobJSON
	if err := json.NewDecoder(cresp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK || cv.State != JobCanceled {
		t.Fatalf("cancel of canceled job = %d state %s, want 200 canceled", cresp.StatusCode, cv.State)
	}
	oresp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	obody, _ := io.ReadAll(oresp.Body)
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusConflict || !bytes.Contains(obody, []byte("job canceled")) {
		t.Fatalf("output of canceled job = %d %q, want 409 'job canceled'", oresp.StatusCode, obody)
	}

	// Cancel of an already-finished job is a no-op 200: the terminal
	// state is immutable, and the response proves it.
	if v := waitJob(t, blocker, 2*time.Minute); v.State != JobDone {
		t.Fatalf("blocker %s (%s), want done", v.State, v.Error)
	}
	fresp, err := http.Post(ts.URL+"/v1/jobs/"+blocker.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fv JobJSON
	if err := json.NewDecoder(fresp.Body).Decode(&fv); err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK || fv.State != JobDone {
		t.Fatalf("cancel of finished job = %d state %s, want 200 done", fresp.StatusCode, fv.State)
	}
}

// TestHistJobAndRegistryHTTP drives the histogram job over HTTP (the
// full SB-bound matrix at one SB size), then spot-checks the registry
// list, the bench endpoint, and the inflight gauge accessor.
func TestHistJobAndRegistryHTTP(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(JobRequest{Kind: "hist", SB: 114})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || v.Kind != "hist" {
		t.Fatalf("hist submit: status %d kind %s", resp.StatusCode, v.Kind)
	}
	if s.JobsInflight() == 0 {
		t.Fatal("JobsInflight = 0 with a job just submitted")
	}
	j, ok := s.Job(v.ID)
	if !ok {
		t.Fatal("submitted hist job not in registry")
	}
	if fv := waitJob(t, j, 2*time.Minute); fv.State != JobDone {
		t.Fatalf("hist job %s (%s), want done", fv.State, fv.Error)
	}

	out, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/output")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(out.Body)
	out.Body.Close()
	if ct := out.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("hist output content type %q", ct)
	}
	if !bytes.Contains(data, []byte("SB occupancy")) && !bytes.Contains(data, []byte("occupancy")) {
		t.Fatalf("hist output does not look like histograms:\n%.400s", data)
	}

	// The registry list carries the job.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []JobJSON
	if err := json.NewDecoder(lresp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	found := false
	for _, jj := range jobs {
		if jj.ID == v.ID && jj.State == JobDone {
			found = true
		}
	}
	if !found {
		t.Fatalf("GET /v1/jobs does not list finished hist job %s: %+v", v.ID, jobs)
	}

	// Quiesced: the gauge returns to zero.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if n := s.JobsInflight(); n != 0 {
		t.Fatalf("JobsInflight = %d after WaitIdle, want 0", n)
	}
}

// TestJobEviction pins the registry bound: with KeepJobs 1, old
// terminal jobs are evicted as new ones arrive, and evicted IDs 404.
func TestJobEviction(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 1, KeepJobs: 1})

	var ids []string
	for _, bench := range []string{"502.gcc1", "502.gcc2", "502.gcc3"} {
		j, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{bench}, Mechs: []string{"base"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		if v := waitJob(t, j, 2*time.Minute); v.State != JobDone {
			t.Fatalf("job %s: %s (%s)", j.ID, v.State, v.Error)
		}
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatalf("job %s survived eviction with KeepJobs=1", ids[0])
	}
	if got := len(s.Jobs()); got > 2 {
		t.Fatalf("registry holds %d jobs with KeepJobs=1, want <= 2", got)
	}
	// The newest job is still present.
	if _, ok := s.Job(ids[2]); !ok {
		t.Fatalf("newest job %s missing from registry", ids[2])
	}
}

// TestEvictionSkipsRunningJobs: eviction takes the jobs that turned
// terminal first and never a running one. A blocked job older than
// KeepJobs finished ones stays registered and listed first, and the
// registry and the coalesce index stay within KeepJobs plus the jobs
// still running.
func TestEvictionSkipsRunningJobs(t *testing.T) {
	const keep = 4
	r := testRunner(t, "")
	r.ParallelOps = 100_000 // the blocker's one 16-core cell runs for seconds
	s, _ := newTestServer(t, Options{Runner: r, MaxJobs: 2, KeepJobs: keep})
	blocker, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"ferret"}, Mechs: []string{"TUS"}, SBs: []int{114}})
	if err != nil {
		t.Fatal(err)
	}
	bounded := func(when string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		running := 0
		for _, j := range s.jobs {
			if !j.terminal() {
				running++
			}
		}
		if len(s.jobs) > keep+running || len(s.latest) > keep+running {
			t.Fatalf("%s: %d jobs and %d coalesce keys registered, want <= %d+%d", when, len(s.jobs), len(s.latest), keep, running)
		}
	}
	for i := 0; i < 3*keep; i++ {
		j, _, err := s.Submit(JobRequest{Kind: "cells", Benches: []string{"502.gcc1"}, Mechs: []string{"base"}, SBs: []int{8 + i}})
		if err != nil {
			t.Fatal(err)
		}
		bounded(fmt.Sprintf("submit %d", i))
		if v := waitJob(t, j, time.Minute); v.State != JobDone {
			t.Fatalf("job %s: %s (%s)", j.ID, v.State, v.Error)
		}
		bounded(fmt.Sprintf("job %d done", i))
	}
	if blocker.terminal() {
		t.Fatalf("blocker ended %s before the last submit", blocker.view().State)
	}
	if jobs := s.Jobs(); jobs[0] != blocker {
		t.Fatalf("registry lists %s first, want the running blocker %s", jobs[0].ID, blocker.ID)
	}
	s.Cancel(blocker.ID)
	waitJob(t, blocker, 2*time.Minute)
}

// TestHealthzAndDrainingAccessor covers the healthy side of /healthz
// and the Draining accessor across the drain transition.
func TestHealthzAndDrainingAccessor(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, []byte("ok\n")) {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Tusd-Version") != harness.Version {
		t.Fatalf("healthz version header %q", resp.Header.Get("X-Tusd-Version"))
	}
	if s.Draining() {
		t.Fatal("fresh server reports draining")
	}
	s.StartDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	// Submission over HTTP during drain is 503 with the drain message.
	b, _ := json.Marshal(JobRequest{Kind: "figure", Fig: 9})
	dresp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(dbody, []byte("draining")) {
		t.Fatalf("submit during drain = %d %q, want 503 draining", dresp.StatusCode, dbody)
	}
}

// TestPromFloat pins the Prometheus float spellings for the edge cases.
func TestPromFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"},
		{0, "0"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	} {
		if got := promFloat(tc.in); got != tc.want {
			t.Errorf("promFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
