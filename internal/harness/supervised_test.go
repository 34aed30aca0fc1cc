package harness

import (
	"bytes"
	"errors"
	"reflect"
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

// transientCrash is a chaos-induced watchdog report: the one failure
// class NewSupervisor's policy classifies as retryable.
func transientCrash() error {
	return &system.CrashReport{
		Kind:      system.CrashWatchdog,
		FaultPlan: faults.Plan{Seed: 7, NackPct: 10},
	}
}

// TestSupervisedTransientRetriesThenMatches: a cell that fails once with
// a chaos watchdog trip retries with backoff, succeeds, and produces a
// result identical to an unsupervised run.
func TestSupervisedTransientRetriesThenMatches(t *testing.T) {
	b, _ := workload.ByName("503.bw2")

	plain := NewQuickRunner()
	plain.Ops = 2000
	want, err := plain.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatal(err)
	}

	r := NewQuickRunner()
	r.Ops = 2000
	r.Supervisor = NewSupervisor(0)
	var tripped atomic.Bool
	r.testHookSim = func(key string) error {
		if tripped.CompareAndSwap(false, true) {
			return transientCrash()
		}
		return nil
	}
	got, err := r.Run(b, config.TUS, 114)
	if err != nil {
		t.Fatalf("supervised run failed after transient trip: %v", err)
	}
	if n := r.Supervisor.Retries(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
	if got.Cycles != want.Cycles || got.EDP != want.EDP {
		t.Fatalf("retried result differs: got cycles=%d edp=%v, want cycles=%d edp=%v",
			got.Cycles, got.EDP, want.Cycles, want.EDP)
	}
	if !reflect.DeepEqual(got.Stats.Snapshot(), want.Stats.Snapshot()) {
		t.Fatal("retried stats differ from unsupervised run")
	}
	if len(r.Supervisor.QuarantinedCells()) != 0 {
		t.Fatal("a recovered transient must not quarantine")
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
	if r.Supervisor.Retries() != 0 {
		t.Fatal("deterministic failure must not consume the retry budget")
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

// TestSupervisedDeadlineMissPublishesOnce: the supervisor gives up on an
// attempt that overruns its deadline and retries, but the overrun
// attempt keeps running and finishes later. Only the winning attempt may
// be published — one cells_run, one trace callback — or tusload's
// exactly-once invariant and tusd_cells_run_total both break.
func TestSupervisedDeadlineMissPublishesOnce(t *testing.T) {
	b, _ := workload.ByName("503.bw2")
	r := NewQuickRunner()
	r.Ops = 500 // ~40 ms under -race: far inside the retry's deadline
	r.Supervisor = NewSupervisor(time.Second)
	var traces atomic.Int64
	r.OnTrace = func(string, *trace.Tracer) { traces.Add(1) }
	release := make(chan struct{})
	var calls atomic.Int64
	r.testHookSim = func(string) error {
		if calls.Add(1) == 1 {
			<-release // stall the first attempt past its deadline
		}
		return nil
	}
	if _, err := r.Run(b, config.TUS, 114); err != nil {
		t.Fatalf("retry after the deadline miss failed: %v", err)
	}
	if n := r.Supervisor.Retries(); n != 1 {
		t.Fatalf("retries = %d, want 1", n)
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
	if n := r.CacheStats().CellsRun; n != 1 {
		t.Fatalf("cells_run = %d after one cell (overrun attempt + retry), want 1", n)
	}
	if n := traces.Load(); n != 1 {
		t.Fatalf("OnTrace fired %d times for one cell, want 1", n)
	}
}
