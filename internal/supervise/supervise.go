// Package supervise is the harness's cell supervision layer: every
// experiment cell runs once under panic capture, and a cell that fails
// (an error, a panic, or a miss of the fixed hang guard the caller
// enforces through the cell's context) is quarantined on that first
// failure, so one poisoned cell degrades its figure instead of killing
// the whole run. A cell is a deterministic simulation, so its outcome is
// a function of the cell alone: nothing is retried, and no deadline is
// derived from the host's speed. A cell its caller stopped is not a
// failure. It pairs with a run journal (journal.go): one state file per
// run holding its header and its quarantined cells, so a killed run
// resumes with its quarantines. Its finished cells need no record: the
// result cache holds exactly them.
//
// The design mirrors the paper's own premise: let speculative work
// proceed optimistically, detect the rare failure precisely, and repair
// from durable state instead of failing wholesale.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"tusim/internal/config"
)

// Quarantined is the error a supervised cell returns once it has been
// poisoned: the cell will not be attempted again this run (or, via the
// journal, on resume). Figures skip the cell, not fail, and the
// supervisor's quarantine list is the record of the skip.
type Quarantined struct {
	Key    string
	Reason string
	Err    error
}

// Error implements error.
func (q *Quarantined) Error() string {
	return fmt.Sprintf("supervise: cell %s quarantined: %s", q.Key, q.Reason)
}

// Unwrap exposes the underlying failure for errors.As chains.
func (q *Quarantined) Unwrap() error { return q.Err }

// DeadlineError reports a cell stopped by its hang guard: the cause of
// the attempt's context, and the failure its cell is quarantined with.
type DeadlineError struct {
	Key   string
	Limit time.Duration
}

// Error implements error.
func (d *DeadlineError) Error() string {
	return fmt.Sprintf("supervise: cell %s exceeded its %v deadline", d.Key, d.Limit)
}

// PanicError wraps a recovered panic from a supervised cell when no
// Policy.WrapPanic hook is installed.
type PanicError struct {
	Key   string
	Value any
	Stack string
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("supervise: cell %s panicked: %v", p.Key, p.Value)
}

// Policy configures a Supervisor. The zero value is usable: a
// config.DefaultCellTimeout hang guard and *PanicError panic wrapping.
type Policy struct {
	// Deadline is the per-cell hang guard: the caller stops an attempt
	// still running after it, which fails with a *DeadlineError and
	// quarantines. It is fixed, never derived from observed runtimes, so
	// a slow but healthy cell cannot change a figure. Zero selects
	// config.DefaultCellTimeout.
	Deadline time.Duration
	// WrapPanic converts a recovered panic into the caller's error type
	// (the harness builds a system.CrashReport). Nil wraps into
	// *PanicError.
	WrapPanic func(key string, value any, stack []byte) error
	// Warnf receives one-line operational warnings (quarantines). Nil
	// discards them. Never write these to stdout: figure output must
	// stay byte-identical.
	Warnf func(format string, args ...any)
}

// Supervisor runs cells under one Policy, sharing a quarantine list and
// (optionally) a run journal. All methods are safe for concurrent use.
type Supervisor struct {
	p Policy

	mu          sync.Mutex
	quarantined map[string]string // key -> reason
	journal     *Journal
}

// New builds a supervisor, filling a zero Deadline with
// config.DefaultCellTimeout.
func New(p Policy) *Supervisor {
	if p.Deadline <= 0 {
		p.Deadline = config.DefaultCellTimeout
	}
	return &Supervisor{p: p, quarantined: map[string]string{}}
}

// SetJournal attaches a run journal: every cell Do quarantines is saved
// to it. Nil detaches.
func (s *Supervisor) SetJournal(j *Journal) {
	s.mu.Lock()
	s.journal = j
	s.mu.Unlock()
}

// Quarantine marks a cell poisoned without running it (resume preloads
// the prior run's quarantine list through this).
func (s *Supervisor) Quarantine(key, reason string) {
	s.mu.Lock()
	if _, dup := s.quarantined[key]; !dup {
		s.quarantined[key] = reason
	}
	s.mu.Unlock()
}

// QuarantinedCells returns a copy of the quarantine list.
func (s *Supervisor) QuarantinedCells() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.quarantined))
	for k, v := range s.quarantined {
		out[k] = v
	}
	return out
}

// warnf routes an operational warning through the policy hook.
func (s *Supervisor) warnf(format string, args ...any) {
	if s.p.Warnf != nil {
		s.p.Warnf(format, args...)
	}
}

// Deadline is the policy's per-cell hang guard.
func (s *Supervisor) Deadline() time.Duration { return s.p.Deadline }

// attempt runs fn once, converting a panic into its error.
func (s *Supervisor) attempt(key string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			stack := debug.Stack()
			if s.p.WrapPanic != nil {
				err = s.p.WrapPanic(key, v, stack)
				return
			}
			err = &PanicError{Key: key, Value: v, Stack: string(stack)}
		}
	}()
	return fn()
}

// Do runs one cell under supervision: one attempt, and on any failure
// (error, panic or deadline miss) the cell is quarantined and, with a
// journal attached, saved to it. A healthy cell writes nothing: the
// caller caches its result. A simulation cell is deterministic, so a
// second attempt would fail the same way. class is unused;
// benchmark/probes.go pins the signature.
//
// The returned error is nil on success, fn's own error when it is
// context.Canceled or context.DeadlineExceeded (the caller stopped the
// cell: nothing is quarantined or journaled), or a *Quarantined that
// unwraps to the attempt's failure. Calling Do again for a quarantined
// key returns immediately without running fn.
func (s *Supervisor) Do(key, class string, fn func() error) error {
	s.mu.Lock()
	reason, bad := s.quarantined[key]
	s.mu.Unlock()
	if bad {
		return &Quarantined{Key: key, Reason: reason}
	}
	err := s.attempt(key, fn)
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	reason = fmt.Sprintf("deterministic failure: %v", err)
	s.Quarantine(key, reason)
	s.warnf("supervise: cell %s quarantined: %s", key, reason)
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j != nil {
		j.quarantine(key, reason)
	}
	return &Quarantined{Key: key, Reason: reason, Err: err}
}
