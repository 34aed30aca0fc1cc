package loadgen_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tusim/internal/harness"
	"tusim/internal/loadgen"
	"tusim/internal/server"
)

// testOps matches the server test scale: tiny traces, because these
// tests exercise load-generation and invariant plumbing, not simulation
// fidelity.
const (
	testOps  = 2500
	testPOps = 300
)

func testRunner(t *testing.T, cacheDir string) *harness.Runner {
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

// startDaemon serves a real server.Server over httptest and returns its
// base URL plus the matching byte-identity references.
func startDaemon(t *testing.T, cacheDir string) (string, map[int][]byte) {
	t.Helper()
	s := server.New(server.Options{Runner: testRunner(t, cacheDir), MaxJobs: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	refs, err := loadgen.RenderReferences(testRunner(t, ""), []int{9})
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL, refs
}

// TestClosedLoopRun is the acceptance scenario: a closed-loop run at
// concurrency 8 over the full default mix against a live daemon, ending
// with zero invariant violations and the exactly-once cell total.
func TestClosedLoopRun(t *testing.T) {
	base, refs := startDaemon(t, t.TempDir())
	l, err := loadgen.New(loadgen.Options{
		BaseURL:      base,
		Seed:         42,
		Concurrency:  8,
		Requests:     40,
		Figs:         []int{9},
		References:   refs,
		MetricsEvery: 50 * time.Millisecond,
		JobDeadline:  time.Minute,
		Warnf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(context.Background()); err != nil {
		t.Fatalf("run: %v\nall violations: %v", err, l.Violations())
	}

	rep := l.Report()
	if rep.Requests < 40 {
		t.Fatalf("report counts %d requests, want >= 40", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("report counts %d errors, want 0", rep.Errors)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.ExpectedCells != len(harness.FigureCellUnion(9)) {
		t.Fatalf("expected cells %d, want %d", rep.ExpectedCells, len(harness.FigureCellUnion(9)))
	}
	if rep.MetricsScrapes == 0 {
		t.Fatal("metrics watcher never scraped")
	}
	if len(rep.Endpoints) == 0 {
		t.Fatal("no endpoint stats recorded")
	}
	var sawColdFigure bool
	for _, e := range rep.Endpoints {
		if e.Endpoint == "figure-cold" && e.LatencyUS.Count > 0 {
			sawColdFigure = true
		}
	}
	if !sawColdFigure {
		t.Fatalf("no figure-cold endpoint in %+v", rep.Endpoints)
	}

	// The report must round-trip through disk: CI uploads the file.
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back loadgen.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Requests != rep.Requests || len(back.Endpoints) != len(rep.Endpoints) {
		t.Fatalf("report round-trip mismatch: %+v vs %+v", back, rep)
	}
}

// TestOpenLoop drives a short fixed-rate phase: ops launch on schedule
// and the run still ends violation-free.
func TestOpenLoop(t *testing.T) {
	base, refs := startDaemon(t, t.TempDir())
	l, err := loadgen.New(loadgen.Options{
		BaseURL:      base,
		Seed:         7,
		Rate:         50,
		Requests:     16,
		Figs:         []int{9},
		Mix:          loadgen.Mix{Figure: 3, Storm: 1},
		References:   refs,
		MetricsEvery: 50 * time.Millisecond,
		JobDeadline:  time.Minute,
		Warnf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep := l.Report(); rep.Mode != "open" || rep.Errors != 0 {
		t.Fatalf("mode %s errors %d, want open/0", rep.Mode, rep.Errors)
	}
}

// TestCorruptReferenceDetected proves the byte-identity oracle has
// teeth: a loader armed with wrong reference bytes must flag every
// figure response as a violation.
func TestCorruptReferenceDetected(t *testing.T) {
	base, _ := startDaemon(t, t.TempDir())
	l, err := loadgen.New(loadgen.Options{
		BaseURL:    base,
		Figs:       []int{9},
		References: map[int][]byte{9: []byte("not the figure\n")},
		Warnf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = l.ColdSweep(context.Background())
	if err == nil {
		t.Fatal("cold sweep accepted a response that differs from the reference")
	}
	if !strings.Contains(err.Error(), "differs from canonical") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	refs := map[int][]byte{9: []byte("x")}
	if _, err := loadgen.New(loadgen.Options{}); err == nil {
		t.Fatal("New accepted empty BaseURL")
	}
	if _, err := loadgen.New(loadgen.Options{BaseURL: "http://x", Figs: []int{9}}); err == nil {
		t.Fatal("New accepted missing references")
	}
	if _, err := loadgen.New(loadgen.Options{
		BaseURL: "http://x", Figs: []int{15},
		References: map[int][]byte{15: []byte("x")},
		Mix:        loadgen.Mix{Cells: 1},
	}); err == nil {
		t.Fatal("New accepted cells ops without figure 9 in the sweep")
	}
	l, err := loadgen.New(loadgen.Options{BaseURL: "http://x/", Figs: []int{9}, References: refs})
	if err != nil {
		t.Fatal(err)
	}
	if l.Base() != "http://x" {
		t.Fatalf("base %q, want trailing slash trimmed", l.Base())
	}
	if got := l.Report().ExpectedCells; got != len(harness.FigureCellUnion(9)) {
		t.Fatalf("default ExpectedCells %d", got)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP tusd_jobs_inflight gauge
# TYPE tusd_jobs_inflight gauge
tusd_jobs_inflight 2
tusd_cells_run_total 55
tusd_jobs_completed_total{kind="figure",status="done"} 3
tusd_job_seconds_sum{kind="figure"} 1.25

`
	m, err := loadgen.ParseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"tusd_jobs_inflight":   2,
		"tusd_cells_run_total": 55,
		`tusd_jobs_completed_total{kind="figure",status="done"}`: 3,
		`tusd_job_seconds_sum{kind="figure"}`:                    1.25,
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d series, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Fatalf("%s = %v, want %v", k, m[k], v)
		}
	}
	if _, err := loadgen.ParseProm("tusd_bogus_line"); err == nil {
		t.Fatal("ParseProm accepted a line with no value")
	}
	if _, err := loadgen.ParseProm("tusd_x not-a-number"); err == nil {
		t.Fatal("ParseProm accepted a non-numeric value")
	}
}

func TestMonotonicViolations(t *testing.T) {
	prev := map[string]float64{
		"tusd_cells_run_total":            55,
		"tusd_jobs_inflight":              4,
		`tusd_job_seconds_bucket{le="1"}`: 7,
		"tusd_vanishes_total":             1,
	}
	cur := map[string]float64{
		"tusd_cells_run_total":            54, // backwards: violation
		"tusd_jobs_inflight":              0,  // gauge may fall freely
		`tusd_job_seconds_bucket{le="1"}`: 9,  // grew: fine
		"tusd_new_total":                  1,  // new series: fine
	}
	v := loadgen.MonotonicViolations(prev, cur)
	if len(v) != 2 {
		t.Fatalf("got %d violations, want 2 (backwards + vanished): %v", len(v), v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "went backwards") || !strings.Contains(joined, "vanished") {
		t.Fatalf("violations: %v", v)
	}
	if v := loadgen.MonotonicViolations(cur, cur); len(v) != 0 {
		t.Fatalf("identical scrapes produced violations: %v", v)
	}
}
