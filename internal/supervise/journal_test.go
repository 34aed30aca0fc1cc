package supervise

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type testHeader struct {
	Tool string `json:"tool"`
	Ops  int    `json:"ops"`
}

func writeJournal(t *testing.T, dir string, finishRun bool) string {
	t.Helper()
	j, err := Create(dir, "run-1", testHeader{Tool: "tusbench", Ops: 2000})
	if err != nil {
		t.Fatal(err)
	}
	j.quarantine("a/TUS/114", "deterministic failure: boom")
	if finishRun {
		j.Finish()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return statePath(dir, "run-1")
}

func mustLoad(t *testing.T, dir, runID string) *RunState {
	t.Helper()
	st, err := Load(dir, runID)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJournalRoundTrip: the header, the quarantines and finished
// round-trip through the state file, and the file holds nothing else.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, true)
	st := mustLoad(t, dir, "run-1")
	var hdr testHeader
	if err := json.Unmarshal(st.Header, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Tool != "tusbench" || hdr.Ops != 2000 {
		t.Fatalf("header round trip: %+v", hdr)
	}
	want := map[string]string{"a/TUS/114": "deterministic failure: boom"}
	if !reflect.DeepEqual(st.Quarantined, want) {
		t.Fatalf("quarantines = %v, want %v", st.Quarantined, want)
	}
	if !st.Finished || st.RunID != "run-1" {
		t.Fatalf("finished = %v, run ID = %q", st.Finished, st.RunID)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != 3 || fields["header"] == nil || fields["quarantined"] == nil || fields["finished"] == nil {
		t.Fatalf("state file holds %s, want only header, quarantined and finished", data)
	}
}

// TestJournalTruncatedTail: a kill during a save leaves a stray, possibly
// torn temp file beside the state file. Load ignores it and returns the
// last committed state, and the journal keeps saving past it.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, false)
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "run-1.tmp4242")
	if err := os.WriteFile(stray, committed[:len(committed)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st := mustLoad(t, dir, "run-1")
	if st.Quarantined["a/TUS/114"] == "" || st.Finished {
		t.Fatalf("state after a killed save = %+v, want the last committed one", st)
	}
	j := Continue(dir, st)
	j.Finish()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := mustLoad(t, dir, "run-1"); !st.Finished || len(st.Quarantined) != 1 {
		t.Fatalf("state after saving past a stray temp file = %+v", st)
	}
}

// TestJournalBadChecksum: a state file that does not decode (cut short,
// or a byte flipped out of JSON) is a load error naming the run, never
// an empty resume that would drop the run's quarantines.
func TestJournalBadChecksum(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"cut short":    data[:len(data)-25],
		"flipped byte": []byte(strings.Replace(string(data), `"quarantined": {`, `"quarantined": [`, 1)),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(dir, "run-1")
		if err == nil || !strings.Contains(err.Error(), "run-1") {
			t.Fatalf("%s: Load = %+v, %v; want an error naming run-1", name, st, err)
		}
	}
}

// TestJournalDuplicateFinish: repeated Finish calls and a repeated
// quarantine of one cell leave one valid state: finished, and the cell
// with its first reason.
func TestJournalDuplicateFinish(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, "run-2", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	j.quarantine("c/TUS/32", "deterministic failure: first")
	j.Finish()
	j.quarantine("c/TUS/32", "deterministic failure: late duplicate")
	j.Finish()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := mustLoad(t, dir, "run-2")
	want := map[string]string{"c/TUS/32": "deterministic failure: first"}
	if !st.Finished || !reflect.DeepEqual(st.Quarantined, want) {
		t.Fatalf("state = %+v, want finished with %v", st, want)
	}
}

// TestJournalResumeAppend: a journal continued from a loaded state keeps
// the prior run's quarantines from its first save on.
func TestJournalResumeAppend(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, false)
	st := mustLoad(t, dir, "run-1")
	j := Continue(dir, st)
	j.quarantine("b/base/114", "deterministic failure: second")
	want := map[string]string{
		"a/TUS/114":  "deterministic failure: boom",
		"b/base/114": "deterministic failure: second",
	}
	if got := mustLoad(t, dir, "run-1").Quarantined; !reflect.DeepEqual(got, want) {
		t.Fatalf("first save after the resume: quarantines = %v, want %v", got, want)
	}
	if len(st.Quarantined) != 1 {
		t.Fatalf("Continue wrote through to the loaded state: %v", st.Quarantined)
	}
	j.Finish()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := mustLoad(t, dir, "run-1")
	if !st2.Finished || !reflect.DeepEqual(st2.Quarantined, want) || !reflect.DeepEqual(st2.Header, st.Header) {
		t.Fatalf("resumed state = %+v", st2)
	}
}

// TestJournalErrors: a missing journal and a journal without a valid
// header are load errors (nothing to resume), not panics.
func TestJournalErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir, "no-such-run"); err == nil {
		t.Fatal("missing journal must error")
	}
	for name, data := range map[string]string{"garbage": "garbage\n", "headless": `{"quarantined": {}}`} {
		if err := os.WriteFile(statePath(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir, name); err == nil {
			t.Fatalf("%s journal must error", name)
		}
	}
}

// TestJournalFinished: a completed run's journal reports Finished so
// resume can no-op politely.
func TestJournalFinished(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, true)
	if st := mustLoad(t, dir, "run-1"); !st.Finished {
		t.Fatal("Finish not reflected")
	}
}

// TestSupervisorJournals: Do saves every quarantined cell to the journal,
// from concurrent workers too, and writes nothing for a healthy cell or
// a cell its caller stopped.
func TestSupervisorJournals(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, "run-3", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testPolicy())
	s.SetJournal(j)
	if err := s.Do("ok-cell", "st", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	s.Do("stopped-cell", "st", func() error { return context.Canceled })
	want := map[string]string{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("bad-cell-%d", i)
		want[key] = "deterministic failure: invariant violated"
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Do(key, "st", func() error { return errDeterministic })
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := mustLoad(t, dir, "run-3")
	if !reflect.DeepEqual(st.Quarantined, want) {
		t.Fatalf("journaled quarantines = %v, want %v", st.Quarantined, want)
	}
	data, err := os.ReadFile(statePath(dir, "run-3"))
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []string{"ok-cell", "stopped-cell"} {
		if strings.Contains(string(data), cell) {
			t.Fatalf("state file names %s:\n%s", cell, data)
		}
	}
}

// TestJournalCloseReportsWriteError: a failed save stops the journal and
// Close reports it, so a run whose journal stopped recording (a removed
// or full journal dir) is not mistaken for one that recorded everything.
func TestJournalCloseReportsWriteError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	j, err := Create(dir, "run-ro", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	j.quarantine("a/base/114", "deterministic failure: boom")
	// The error is sticky: with the dir back, later changes stay dropped.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j.Finish()
	if err := j.Close(); err == nil || !strings.Contains(err.Error(), "run-ro") {
		t.Fatalf("Close after a failed save = %v, want an error naming run-ro", err)
	}
	if _, err := os.Stat(statePath(dir, "run-ro")); !os.IsNotExist(err) {
		t.Fatalf("a change after the failed save reached the disk (stat: %v)", err)
	}
}

// TestNewRunID: IDs are sortable (timestamp prefix) and
// collision-resistant (random suffix makes same-second IDs distinct).
func TestNewRunID(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == b {
		t.Fatalf("two NewRunID calls collided: %s", a)
	}
	for _, id := range []string{a, b} {
		if len(id) < len("20060102-150405") {
			t.Fatalf("run ID %q shorter than its timestamp prefix", id)
		}
		if strings.ContainsAny(id, "/\\ ") {
			t.Fatalf("run ID %q is not filesystem-safe", id)
		}
	}
}

// TestCreateErrors: an unmarshalable header, an unusable directory and a
// state path the rename cannot replace all fail up front instead of
// leaving a run without a journal.
func TestCreateErrors(t *testing.T) {
	if _, err := Create(t.TempDir(), "run-x", map[string]any{"ch": make(chan int)}); err == nil {
		t.Fatal("Create accepted an unmarshalable header")
	}
	file := t.TempDir() + "/occupied"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(file+"/sub", "run-x", testHeader{}); err == nil {
		t.Fatal("Create accepted a journal dir under a regular file")
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(statePath(dir, "run-x"), "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, "run-x", testHeader{}); err == nil {
		t.Fatal("Create renamed a state file over a non-empty directory")
	}
	if err := Continue(dir, &RunState{RunID: "run-y", Header: json.RawMessage("{")}).save(); err == nil {
		t.Fatal("save accepted a state that does not encode")
	}
}
