package supervise

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testPolicy is a fast policy for unit tests: a one-second hang guard.
func testPolicy() Policy {
	return Policy{Deadline: time.Second}
}

var errDeterministic = errors.New("invariant violated")

// TestDeterministicQuarantinesImmediately: a failure goes straight to
// quarantine after one attempt, and subsequent attempts on the same key
// short-circuit without running.
func TestDeterministicQuarantinesImmediately(t *testing.T) {
	s := New(testPolicy())
	calls := 0
	err := s.Do("cell/b", "st", func() error {
		calls++
		return errDeterministic
	})
	var q *Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("expected *Quarantined, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("a failure must not retry: %d calls", calls)
	}
	if q.Reason != "deterministic failure: invariant violated" {
		t.Fatalf("reason = %q", q.Reason)
	}
	if !errors.Is(err, errDeterministic) {
		t.Fatal("quarantine must unwrap to the underlying failure")
	}
	// Second attempt: short-circuit.
	err2 := s.Do("cell/b", "st", func() error {
		calls++
		return nil
	})
	if !errors.As(err2, &q) {
		t.Fatalf("expected cached quarantine, got %v", err2)
	}
	if calls != 1 {
		t.Fatal("quarantined cell must not re-execute")
	}
}

// TestPanicCaptured: a panicking cell is recovered, wrapped, classified
// deterministic, and quarantined — the process survives.
func TestPanicCaptured(t *testing.T) {
	s := New(testPolicy())
	err := s.Do("cell/p", "st", func() error {
		panic("index out of range [114]")
	})
	var q *Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("expected *Quarantined, got %v", err)
	}
	var p *PanicError
	if !errors.As(err, &p) {
		t.Fatalf("expected wrapped *PanicError, got %v", err)
	}
	if p.Value != "index out of range [114]" || p.Stack == "" {
		t.Fatalf("panic payload/stack missing: %+v", p)
	}
}

// TestPanicWrapHook: a WrapPanic hook converts the panic into the
// caller's error type (the harness turns it into a CrashReport).
func TestPanicWrapHook(t *testing.T) {
	p := testPolicy()
	type wrapped struct{ error }
	p.WrapPanic = func(key string, v any, stack []byte) error {
		return wrapped{fmt.Errorf("crash report for %s: %v (%d stack bytes)", key, v, len(stack))}
	}
	s := New(p)
	err := s.Do("cell/w", "st", func() error { panic("boom") })
	var w wrapped
	if !errors.As(err, &w) {
		t.Fatalf("expected hook-wrapped error, got %v", err)
	}
}

// TestDeadlineQuarantines: an attempt its hang guard stopped fails with
// a *DeadlineError and its cell is quarantined after that one attempt.
// An attempt its caller stopped (context.Canceled) is not a failure: Do
// returns the error as-is and quarantines and journals nothing, so
// resume re-runs the cell.
func TestDeadlineQuarantines(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, "run-d", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Policy{Deadline: 25 * time.Millisecond})
	s.SetJournal(j)
	if s.Deadline() != 25*time.Millisecond {
		t.Fatalf("Deadline() = %v, want 25ms", s.Deadline())
	}
	var calls atomic.Int32
	err = s.Do("cell/d", "st", func() error {
		calls.Add(1)
		return &DeadlineError{Key: "cell/d", Limit: s.Deadline()}
	})
	var q *Quarantined
	if !errors.As(err, &q) {
		t.Fatalf("expected *Quarantined, got %v", err)
	}
	if !strings.HasPrefix(q.Reason, "deterministic failure: ") {
		t.Fatalf("reason = %q", q.Reason)
	}
	var d *DeadlineError
	if !errors.As(err, &d) || d.Limit != 25*time.Millisecond {
		t.Fatalf("quarantine must unwrap to the deadline miss, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("expected 1 attempt, got %d", got)
	}
	if _, bad := s.QuarantinedCells()["cell/d"]; !bad {
		t.Fatal("deadline miss not on the quarantine list")
	}

	err = s.Do("cell/c", "st", func() error { return context.Canceled })
	if err != context.Canceled {
		t.Fatalf("stopped attempt: got %v, want context.Canceled as-is", err)
	}
	if _, bad := s.QuarantinedCells()["cell/c"]; bad {
		t.Fatal("a stopped attempt must not quarantine its cell")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustLoad(t, dir, "run-d").Quarantined; len(got) != 1 || got["cell/d"] != q.Reason {
		t.Fatalf("journaled quarantines = %v, want cell/d alone", got)
	}
}

// TestQuarantinePreload: resume-style preloading poisons cells without
// running them.
func TestQuarantinePreload(t *testing.T) {
	s := New(testPolicy())
	s.Quarantine("cell/q", "poisoned in a prior run")
	err := s.Do("cell/q", "st", func() error {
		t.Fatal("preloaded quarantine must not execute")
		return nil
	})
	var q *Quarantined
	if !errors.As(err, &q) || q.Reason != "poisoned in a prior run" {
		t.Fatalf("expected preloaded quarantine, got %v", err)
	}
}

// TestErrorStrings pins the error types' rendered messages and unwrap
// behaviour — they surface in logs and quarantine reports.
func TestErrorStrings(t *testing.T) {
	inner := errors.New("boom")
	q := &Quarantined{Key: "a/TUS/114", Reason: "deterministic failure", Err: inner}
	if got := q.Error(); got != "supervise: cell a/TUS/114 quarantined: deterministic failure" {
		t.Fatalf("Quarantined.Error() = %q", got)
	}
	if !errors.Is(q, inner) {
		t.Fatal("Quarantined does not unwrap to its cause")
	}
	d := &DeadlineError{Key: "b/base/32", Limit: 2 * time.Second}
	if got := d.Error(); got != "supervise: cell b/base/32 exceeded its 2s deadline" {
		t.Fatalf("DeadlineError.Error() = %q", got)
	}
}

// TestNewDefaultsAndWarnf: New fills a zero Deadline with the default,
// honors an explicit one, and routes warnings through the hook.
func TestNewDefaultsAndWarnf(t *testing.T) {
	s := New(Policy{})
	if s.p.Deadline != DefaultDeadline {
		t.Fatalf("zero Deadline = %v, want DefaultDeadline", s.p.Deadline)
	}
	var warned []string
	s2 := New(Policy{
		Deadline: time.Second,
		Warnf:    func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) },
	})
	if s2.p.Deadline != time.Second {
		t.Fatalf("explicit Deadline = %v, want 1s", s2.p.Deadline)
	}
	s2.warnf("cell %s quarantined", "a/base/114")
	if len(warned) != 1 || warned[0] != "cell a/base/114 quarantined" {
		t.Fatalf("warnf hook: %v", warned)
	}
	// No hook installed: warnf is a safe no-op.
	s.warnf("dropped %d", 1)
}
