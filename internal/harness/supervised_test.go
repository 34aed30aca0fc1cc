package harness

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tusim/internal/config"
	"tusim/internal/faults"
	"tusim/internal/supervise"
	"tusim/internal/system"
	"tusim/internal/trace"
	"tusim/internal/workload"
)

// TestSupervisedChaosCrashQuarantinesOnce: a chaos-induced watchdog
// report (the one CrashReport that classifies Transient) quarantines
// after one attempt like every other failure: a seeded cell replays the
// same crash, so nothing is retried.
func TestSupervisedChaosCrashQuarantinesOnce(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	r := NewQuickRunner()
	r.Ops = 2000
	var attempts atomic.Int64
	r.testHookSim = func(context.Context, string) error {
		attempts.Add(1)
		return &system.CrashReport{
			Kind:      system.CrashWatchdog,
			FaultPlan: faults.Plan{Seed: 7, NackPct: 10},
		}
	}
	_, err := r.Run(b, config.TUS, 114)
	var q *supervise.Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("want *supervise.Quarantined, got %v", err)
	}
	var cr *system.CrashReport
	if !errors.As(err, &cr) || !cr.Transient() {
		t.Fatalf("quarantine lost the chaos crash report: %v", err)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("chaos crash ran %d attempts, want 1", n)
	}
	if !strings.HasPrefix(q.Reason, "deterministic failure: ") {
		t.Fatalf("reason = %q", q.Reason)
	}
}

// TestSupervisedDeterministicQuarantinesImmediately: a reproducible
// failure gets no retry — one attempt, straight to quarantine — and a
// second Run returns the cached quarantine without re-running.
func TestSupervisedDeterministicQuarantinesImmediately(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	r := NewQuickRunner()
	r.Ops = 2000
	var attempts atomic.Int64
	r.testHookSim = func(_ context.Context, key string) error {
		attempts.Add(1)
		return errors.New("deterministic boom")
	}
	_, err := r.Run(b, config.TUS, 114)
	var q *supervise.Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("want *supervise.Quarantined, got %v", err)
	}
	if !strings.Contains(q.Reason, "deterministic") {
		t.Fatalf("reason %q not tagged deterministic", q.Reason)
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("deterministic failure ran %d attempts, want 1 (no retry)", n)
	}
	// Singleflight memoizes the error for this key within the runner, so
	// exercise the supervisor's quarantine check directly.
	err2 := r.Supervisor.Do("503.bw2/TUS/114", "st", func() error {
		t.Fatal("quarantined cell must not re-run")
		return nil
	})
	if !errors.As(err2, &q) {
		t.Fatalf("second attempt: want quarantine, got %v", err2)
	}
}

// TestSupervisedPanicQuarantines: a panicking cell converts to a
// CrashPanic report, classifies deterministic, and quarantines.
func TestSupervisedPanicQuarantines(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	r := NewQuickRunner()
	r.Ops = 2000
	r.testHookSim = func(_ context.Context, key string) error {
		panic("kaboom: slice index out of range")
	}
	_, err := r.Run(b, config.TUS, 114)
	var q *supervise.Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("want quarantine, got %v", err)
	}
	var cr *system.CrashReport
	if !errors.As(err, &cr) {
		t.Fatalf("panic did not convert to a CrashReport: %v", err)
	}
	if cr.Kind != system.CrashPanic {
		t.Fatalf("kind = %q, want %q", cr.Kind, system.CrashPanic)
	}
	if !strings.Contains(cr.Message, "kaboom") {
		t.Fatalf("report lost the panic payload: %q", cr.Message)
	}
	if cr.Stack == "" {
		t.Fatal("report lost the stack")
	}
	if cr.Transient() {
		t.Fatal("panics must classify deterministic")
	}
}

// TestSupervisedFigureDegrades: poisoning one Fig. 9 cell drops that
// benchmark's row, lists the skip among the figure's degraded cells, and
// leaves every other row intact — the figure is an explicit partial
// result, not a failure.
func TestSupervisedFigureDegrades(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 2000
	r.ParallelOps = 500
	r.Workers = 4
	const poison = "505.mcf/TUS/114"
	r.testHookSim = func(_ context.Context, key string) error {
		if key == poison {
			return errors.New("poisoned cell")
		}
		return nil
	}
	rows, err := built[Fig9Rows](r, fig9Spec{})
	if err != nil {
		t.Fatalf("degraded figure must still build: %v", err)
	}
	want := len(workload.SBBound()) - 1
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d (one benchmark dropped)", len(rows), want)
	}
	for _, row := range rows {
		if row.Bench == "505.mcf" {
			t.Fatal("poisoned benchmark must not appear in the figure")
		}
	}
	deg := r.Degraded("fig9", CellKeys(fig9Spec{}.Cells()))
	if len(deg) != 1 || deg[0].Cell != poison || deg[0].Figure != "fig9" || deg[0].Reason == "" {
		t.Fatalf("degraded cells %+v, want %s alone under fig9 with a reason", deg, poison)
	}
	var buf bytes.Buffer
	r.PrintQuarantined(&buf, "tusbench: warning")
	if want := "tusbench: warning: 1 cells degraded by quarantine:\n  " + poison + ": " + deg[0].Reason + "\n"; buf.String() != want {
		t.Fatalf("quarantine list printed %q, want %q", buf.String(), want)
	}
}

// TestSupervisedDeadlineMissPublishesNothing: the hang guard stops a
// running simulation. A real 16-core cell that takes seconds uncancelled
// runs under a 100 ms guard: Run quarantines it within 2 s, nothing of
// it is published — no cells_run, no trace callback, or tusload's
// exactly-once invariant and tusd_cells_run_total both break — and no
// goroutine of it outlives Run, so W workers never run more than W
// simulations.
func TestSupervisedDeadlineMissPublishesNothing(t *testing.T) {
	b, _ := workload.ByName("ferret")
	r := NewQuickRunner()
	r.ParallelOps = 100_000 // ~3 s of simulation uncancelled
	r.Supervisor = NewSupervisor(100 * time.Millisecond)
	var traces atomic.Int64
	r.OnTrace = func(string, *trace.Tracer) { traces.Add(1) }
	// Generate the trace first: the guard stops the simulation, and
	// generation time is not what this test measures.
	r.interned.traces(b, r.Seed, r.ParallelOps)
	before := runtime.NumGoroutine()
	start := time.Now()
	_, err := r.Run(b, config.TUS, 114)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Run returned %v after the start, want a stop within 2s", d)
	}
	var q *supervise.Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("want *supervise.Quarantined after the deadline miss, got %v", err)
	}
	var d *supervise.DeadlineError
	if !errors.As(err, &d) {
		t.Fatalf("quarantine must unwrap to the deadline miss, got %v", err)
	}
	if n := r.CacheStats().CellsRun; n != 0 {
		t.Fatalf("cells_run = %d after a quarantined cell, want 0", n)
	}
	if n := traces.Load(); n != 0 {
		t.Fatalf("OnTrace fired %d times for a quarantined cell, want 0", n)
	}
	// The guard's timer callback may still be returning; a simulation
	// left running would hold a goroutine for seconds.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: the stopped cell is still running", runtime.NumGoroutine(), before)
		}
	}
}

// TestDeadlineMissCachesNothing: a cell the hang guard stopped never
// reaches the disk cache, even once everything it started has returned,
// so a later process cannot serve a quarantined cell as a healthy hit.
// The hook waits out the guard, so Run stops the cell at its first poll.
func TestDeadlineMissCachesNothing(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	dir := t.TempDir()
	runner := func() *Runner {
		r := NewQuickRunner()
		r.Ops = 2000
		c, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		r.Cache = c
		return r
	}
	r := runner()
	r.Supervisor = NewSupervisor(200 * time.Millisecond)
	r.testHookSim = func(ctx context.Context, _ string) error {
		<-ctx.Done()
		return nil
	}
	before := runtime.NumGoroutine()
	var q *supervise.Quarantined
	if _, err := r.Run(b, config.TUS, 114); !errors.As(err, &q) {
		t.Fatalf("want *supervise.Quarantined, got %v", err)
	}
	// Whatever of the cell still runs after Run may write the cache.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the quarantined cell is still running 10s after Run")
		}
	}
	fresh := runner()
	if _, err := fresh.Run(b, config.TUS, 114); err != nil {
		t.Fatal(err)
	}
	if cs := fresh.CacheStats(); cs.CellsCached != 0 || cs.CellsRun != 1 {
		t.Fatalf("fresh runner: %+v, want CellsCached 0 and CellsRun 1", cs)
	}
}

// TestSharedCellSurvivesCancel: two Prefetch callers share one in-flight
// 16-core cell and the owner is canceled while it holds the slot (its
// System.Run then stops at the first poll). The other caller claims the
// cell again and gets the same result a fresh Runner computes, the cell
// is published once, and nothing is quarantined.
func TestSharedCellSurvivesCancel(t *testing.T) {
	b, _ := workload.ByName("ferret")
	cells := []Cell{{b, config.TUS, 114}}
	runner := func() *Runner {
		r := NewQuickRunner()
		r.ParallelOps = 2000
		return r
	}
	fresh := runner()
	want, err := fresh.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}

	r := runner()
	owning := make(chan struct{})
	var claims atomic.Int64
	r.testHookSim = func(ctx context.Context, _ string) error {
		if claims.Add(1) == 1 {
			close(owning)
			<-ctx.Done()
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	owner := make(chan error, 1)
	go func() { owner <- r.Prefetch(ctx, cells) }()
	<-owning
	waiter := make(chan error, 1)
	go func() { waiter <- r.Prefetch(context.Background(), cells) }()
	// Cancel once the waiter is in run too, on the owner's slot.
	buf := make([]byte, 1<<20)
	for bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Runner).run(")) < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-owner; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled owner's Prefetch = %v, want context.Canceled", err)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter's Prefetch: %v", err)
	}
	got, err := r.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Stats.String() != want.Stats.String() {
		t.Fatalf("shared cell: %d cycles, fresh Runner: %d (or stats differ)", got.Cycles, want.Cycles)
	}
	if n, c := r.CacheStats().CellsRun, claims.Load(); n != 1 || c != 2 {
		t.Fatalf("cells_run = %d after %d claims, want 1 after 2", n, c)
	}
	if q := r.Supervisor.QuarantinedCells(); len(q) != 0 {
		t.Fatalf("a canceled owner quarantined %v", q)
	}
}

// TestSlowCellKeepsFigureBytes: a healthy cell slowed by host load (here
// by 2.5 s, many times its siblings' runtimes) is not a failure. Fig. 9 renders byte-identical to the unslowed run with no
// degraded cell: a figure's bytes are a function of its cells alone.
func TestSlowCellKeepsFigureBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps 2.5 s in one cell")
	}
	render := func(hook func(context.Context, string) error) (string, *Runner) {
		r := NewQuickRunner()
		r.Ops = 2000
		r.ParallelOps = 500
		r.Workers = 1
		r.testHookSim = hook
		var buf bytes.Buffer
		if err := RenderFigure(r, 9, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), r
	}
	want, _ := render(nil)
	got, r := render(func(_ context.Context, key string) error {
		if key == "505.mcf/TUS/114" {
			time.Sleep(2500 * time.Millisecond)
		}
		return nil
	})
	if q := r.Supervisor.QuarantinedCells(); len(q) != 0 {
		t.Fatalf("slow cell degraded the figure: %+v", q)
	}
	if got != want {
		t.Fatalf("slowed Fig. 9 differs from the unslowed render:\n%s\nwant:\n%s", got, want)
	}
}
