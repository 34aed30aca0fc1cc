package harness

import (
	"bytes"
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
	r.Supervisor = NewSupervisor(0)
	var attempts atomic.Int64
	r.testHookSim = func(string) error {
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
	r.Supervisor = NewSupervisor(0)
	var attempts atomic.Int64
	r.testHookSim = func(key string) error {
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
	r.Supervisor = NewSupervisor(0)
	r.testHookSim = func(key string) error {
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
// benchmark's row, records the skip in the degraded section, and leaves
// every other row intact — the figure is an explicit partial result,
// not a failure.
func TestSupervisedFigureDegrades(t *testing.T) {
	r := NewQuickRunner()
	r.Ops = 2000
	r.ParallelOps = 500
	r.Workers = 4
	r.Supervisor = NewSupervisor(0)
	const poison = "505.mcf/TUS/114"
	r.testHookSim = func(key string) error {
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
	deg := r.DegradedCells()
	if len(deg) == 0 {
		t.Fatal("degraded section empty; skip was silent")
	}
	found := false
	for _, d := range deg {
		if d.Cell == poison && d.Figure == "fig9" {
			found = true
			if d.Reason == "" {
				t.Fatal("degraded entry has no reason")
			}
		}
	}
	if !found {
		t.Fatalf("degraded section %+v does not name %s under fig9", deg, poison)
	}
}

// TestSupervisedDeadlineMissPublishesNothing: the supervisor gives up
// on an attempt that overruns the hang guard and quarantines the cell,
// but the overrun attempt keeps running and finishes later. Nothing of
// it may be published — no cells_run, no trace callback — or tusload's
// exactly-once invariant and tusd_cells_run_total both break.
func TestSupervisedDeadlineMissPublishesNothing(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	r := NewQuickRunner()
	r.Ops = 500
	r.Supervisor = NewSupervisor(200 * time.Millisecond)
	var traces atomic.Int64
	r.OnTrace = func(string, *trace.Tracer) { traces.Add(1) }
	release := make(chan struct{})
	r.testHookSim = func(string) error {
		<-release // stall the attempt past the hang guard
		return nil
	}
	_, err := r.Run(b, config.TUS, 114)
	var q *supervise.Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("want *supervise.Quarantined after the deadline miss, got %v", err)
	}
	var d *supervise.DeadlineError
	if !errors.As(err, &d) {
		t.Fatalf("quarantine must unwrap to the deadline miss, got %v", err)
	}
	// Let the overrun attempt simulate to completion, and wait until no
	// attempt goroutine is left.
	close(release)
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Supervisor).attempt")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("overrun attempt never returned")
		}
	}
	if n := r.CacheStats().CellsRun; n != 0 {
		t.Fatalf("cells_run = %d after a quarantined cell, want 0", n)
	}
	if n := traces.Load(); n != 0 {
		t.Fatalf("OnTrace fired %d times for a quarantined cell, want 0", n)
	}
}

// TestSlowCellKeepsFigureBytes: a healthy cell slowed by host load (here
// by 2.5 s, many times its siblings' runtimes) is not a failure. Fig. 9 renders byte-identical to the unslowed run with no
// degraded cell: a figure's bytes are a function of its cells alone.
func TestSlowCellKeepsFigureBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("sleeps 2.5 s in one cell")
	}
	render := func(hook func(string) error) (string, *Runner) {
		r := NewQuickRunner()
		r.Ops = 2000
		r.ParallelOps = 500
		r.Workers = 1
		r.Supervisor = NewSupervisor(0)
		r.testHookSim = hook
		var buf bytes.Buffer
		if err := RenderFigure(r, 9, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), r
	}
	want, _ := render(nil)
	got, r := render(func(key string) error {
		if key == "505.mcf/TUS/114" {
			time.Sleep(2500 * time.Millisecond)
		}
		return nil
	})
	if deg := r.DegradedCells(); len(deg) != 0 {
		t.Fatalf("slow cell degraded the figure: %+v", deg)
	}
	if got != want {
		t.Fatalf("slowed Fig. 9 differs from the unslowed render:\n%s\nwant:\n%s", got, want)
	}
}
