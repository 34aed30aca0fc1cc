package loadgen

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"tusim/internal/harness"
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
	return r
}

// startDaemon serves a real server.Server over httptest and returns its
// base URL plus the matching byte-identity references.
func startDaemon(t *testing.T, cacheDir string) (string, map[int][]byte) {
	t.Helper()
	s := server.New(server.Options{Runner: testRunner(t, cacheDir), MaxJobs: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	refs, err := RenderReferences(testRunner(t, ""), []int{9})
	if err != nil {
		t.Fatal(err)
	}
	return ts.URL, refs
}

// coveringSeed returns the first seed under which the workers' first
// draws between them hit every row of the op table — so a run exercises
// every op whatever the scheduler does with the rest of the budget.
func coveringSeed(t *testing.T, l *Loader, workers int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		drawn := map[string]bool{}
		for w := 0; w < workers; w++ {
			drawn[l.pickOp(workerSource(seed, w)).name] = true
		}
		if len(drawn) == len(l.ops) {
			return seed
		}
	}
	t.Fatal("no seed below 10000 covers the op table on the first draws")
	return 0
}

// TestClosedLoopRun is the acceptance scenario: a closed-loop run at
// concurrency 8 over the whole op table against a live daemon, ending
// with zero invariant violations and the exactly-once cell total.
func TestClosedLoopRun(t *testing.T) {
	base, refs := startDaemon(t, t.TempDir())
	o := Options{
		BaseURL:     base,
		Concurrency: 8,
		Requests:    40,
		Figs:        []int{9},
		References:  refs,
		Warnf:       t.Logf,
	}
	probe, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Seed = coveringSeed(t, probe, o.Concurrency)
	l, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Run(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}

	rep := l.Report()
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Scrapes < 2 {
		t.Fatalf("%d metrics scrapes, want one before the first op and one after the last", rep.Scrapes)
	}
	counts := map[string]OpCount{}
	var mixed int64
	for _, c := range rep.Ops {
		counts[c.Name] = c
		if c.Errors != 0 {
			t.Errorf("op %s counts %d errors, want 0", c.Name, c.Errors)
		}
	}
	for _, o := range l.ops {
		if counts[o.name].Requests == 0 {
			t.Errorf("op %s was never exercised: %+v", o.name, rep.Ops)
		}
		mixed += counts[o.name].Requests
	}
	if mixed != 40 {
		t.Errorf("mixed phase counts %d requests, want the budget of 40", mixed)
	}
	if counts["figure-cold"].Requests != 1 || counts["metrics"].Requests != int64(rep.Scrapes) {
		t.Errorf("sweep/scrape counts: %+v with %d scrapes", rep.Ops, rep.Scrapes)
	}
	var summary strings.Builder
	rep.WriteSummary(&summary)
	if !strings.Contains(summary.String(), "zero invariant violations") || !strings.Contains(summary.String(), "storm") {
		t.Errorf("summary:\n%s", summary.String())
	}
}

// TestCorruptReferenceDetected proves the byte-identity oracle has
// teeth: a loader armed with wrong reference bytes must flag every
// figure response as a violation.
func TestCorruptReferenceDetected(t *testing.T) {
	base, _ := startDaemon(t, t.TempDir())
	l, err := New(Options{
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
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted empty BaseURL")
	}
	if _, err := New(Options{BaseURL: "http://x", Figs: []int{9}}); err == nil {
		t.Fatal("New accepted missing references")
	}
	if _, err := New(Options{
		BaseURL: "http://x", Figs: []int{15},
		References: map[int][]byte{15: []byte("x")},
	}); err == nil || !strings.Contains(err.Error(), "figure 9") {
		t.Fatalf("New accepted a sweep without figure 9, whose cells the cells/hist/cancel ops draw: %v", err)
	}
	if err := CheckFigs([]int{10, 9}); err != nil {
		t.Fatalf("CheckFigs refused a list that includes 9: %v", err)
	}
	l, err := New(Options{BaseURL: "http://x/", Figs: []int{9}, References: refs})
	if err != nil {
		t.Fatal(err)
	}
	if l.Base() != "http://x" {
		t.Fatalf("base %q, want trailing slash trimmed", l.Base())
	}
	if l.expectedCells != len(harness.FigureCellUnion(9)) {
		t.Fatalf("expected cells %d, want the union of figure 9", l.expectedCells)
	}
	if l.deadline != jobDeadline || l.client.Timeout != jobDeadline {
		t.Fatalf("deadline %v, client timeout %v, want %v", l.deadline, l.client.Timeout, jobDeadline)
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
	m, err := ParseProm(text)
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
	if _, err := ParseProm("tusd_bogus_line"); err == nil {
		t.Fatal("ParseProm accepted a line with no value")
	}
	if _, err := ParseProm("tusd_x not-a-number"); err == nil {
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
	v := MonotonicViolations(prev, cur)
	if len(v) != 2 {
		t.Fatalf("got %d violations, want 2 (backwards + vanished): %v", len(v), v)
	}
	joined := strings.Join(v, "\n")
	if !strings.Contains(joined, "went backwards") || !strings.Contains(joined, "vanished") {
		t.Fatalf("violations: %v", v)
	}
	if v := MonotonicViolations(cur, cur); len(v) != 0 {
		t.Fatalf("identical scrapes produced violations: %v", v)
	}
}
