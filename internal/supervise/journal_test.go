package supervise

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
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
	j.CellStart("a/base/114")
	j.CellFinish("a/base/114", StatusDone, "")
	j.CellStart("a/TUS/114")
	j.CellFinish("a/TUS/114", StatusQuarantined, "deterministic failure: boom")
	j.CellStart("b/base/114") // in flight: no finish
	if finishRun {
		j.Finish()
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return j.path
}

// TestJournalRoundTrip: records written through the journal replay into
// the expected resume state.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, false)
	st, err := Load(dir, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	var hdr testHeader
	if err := json.Unmarshal(st.Header, &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Tool != "tusbench" || hdr.Ops != 2000 {
		t.Fatalf("header round trip: %+v", hdr)
	}
	if !st.Done["a/base/114"] || len(st.Done) != 1 {
		t.Fatalf("done set wrong: %v", st.Done)
	}
	if st.Quarantined["a/TUS/114"] != "deterministic failure: boom" {
		t.Fatalf("quarantine set wrong: %v", st.Quarantined)
	}
	if !st.InFlight["b/base/114"] || len(st.InFlight) != 1 {
		t.Fatalf("in-flight set wrong: %v", st.InFlight)
	}
	if st.Finished {
		t.Fatal("run without run_finish must not report finished")
	}
	if len(st.Warnings) != 0 {
		t.Fatalf("clean journal produced warnings: %v", st.Warnings)
	}

	ids, err := List(dir)
	if err != nil || len(ids) != 1 || ids[0] != "run-1" {
		t.Fatalf("List = %v, %v", ids, err)
	}
}

// TestJournalTruncatedTail: a SIGKILL mid-append leaves a torn final
// record; Load skips it with a warning and keeps the valid prefix.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the final record's line.
	cut := len(data) - 25
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Warnings) == 0 {
		t.Fatal("truncated tail must warn")
	}
	if !st.Done["a/base/114"] {
		t.Fatal("valid prefix lost after tail truncation")
	}
	// The torn record was b's cell_start; b must simply be absent, and
	// resume re-arms it implicitly by running everything not done.
	if st.InFlight["b/base/114"] {
		t.Fatal("torn start record must not resurrect as in-flight")
	}
}

// TestJournalBadChecksum: a flipped byte inside a record is detected by
// the per-record sha256 and the record is skipped, not trusted and not
// fatal.
func TestJournalBadChecksum(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, false)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the "done" finish record by renaming its cell in place.
	corrupted := strings.Replace(string(data), `"cell":"a/base/114","status":"done"`,
		`"cell":"z/base/114","status":"done"`, 1)
	if corrupted == string(data) {
		t.Fatal("test setup: finish record not found")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Warnings) == 0 {
		t.Fatal("checksum mismatch must warn")
	}
	if st.Done["z/base/114"] || st.Done["a/base/114"] {
		t.Fatalf("corrupted record must not be trusted: %v", st.Done)
	}
	// With its finish record rejected, the cell falls back to in-flight
	// (start is still valid) — the safe direction: it will re-run.
	if !st.InFlight["a/base/114"] {
		t.Fatal("cell with rejected finish must be re-armed")
	}
}

// TestJournalDuplicateFinish: duplicate finish records (possible when a
// kill lands between the cache write and the journal append, then the
// resumed run finishes the cell again) are tolerated: first wins, rest
// warn.
func TestJournalDuplicateFinish(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, "run-2", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	j.CellStart("c/TUS/32")
	j.CellFinish("c/TUS/32", StatusDone, "")
	j.CellFinish("c/TUS/32", StatusQuarantined, "late duplicate")
	j.Close()
	st, err := Load(dir, "run-2")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done["c/TUS/32"] {
		t.Fatal("first finish must win")
	}
	if len(st.Quarantined) != 0 {
		t.Fatalf("duplicate finish must be skipped: %v", st.Quarantined)
	}
	if len(st.Warnings) == 0 {
		t.Fatal("duplicate finish must warn")
	}
}

// TestJournalResumeAppend: OpenAppend continues a journal across
// processes — including after a torn tail, where it must start on a
// fresh line instead of gluing onto the partial record.
func TestJournalResumeAppend(t *testing.T) {
	dir := t.TempDir()
	path := writeJournal(t, dir, false)
	// Tear the tail as a kill would.
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-10], 0o644)

	st, err := Load(dir, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenAppend(dir, "run-1", st.NextSeq)
	if err != nil {
		t.Fatal(err)
	}
	j.CellStart("b/base/114")
	j.CellFinish("b/base/114", StatusDone, "")
	j.Finish()
	j.Close()

	st2, err := Load(dir, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Done["b/base/114"] || !st2.Done["a/base/114"] {
		t.Fatalf("resumed records lost: %v", st2.Done)
	}
	if !st2.Finished {
		t.Fatal("run_finish lost on resumed journal")
	}
	if len(st2.Warnings) == 0 {
		t.Fatal("the torn record should still warn on reload")
	}
}

// TestJournalErrors: a missing journal and a journal without a valid
// header are load errors (nothing to resume), not panics.
func TestJournalErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir, "no-such-run"); err == nil {
		t.Fatal("missing journal must error")
	}
	if err := os.WriteFile(journalPath(dir, "headless"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, "headless"); err == nil {
		t.Fatal("journal without header must error")
	}
}

// TestJournalFinished: a completed run's journal reports Finished so
// resume can no-op politely.
func TestJournalFinished(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, true)
	st, err := Load(dir, "run-1")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished {
		t.Fatal("run_finish not reflected")
	}
}

// TestSupervisorJournals: Do() writes one start and one finish record
// per cell, for done and quarantined cells alike.
func TestSupervisorJournals(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, "run-3", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testPolicy())
	s.SetJournal(j)
	if err := s.Do("ok", "st", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	s.Do("bad", "st", func() error { return errDeterministic })
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Load(dir, "run-3")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done["ok"] {
		t.Fatalf("done cell not journaled: %v", st.Done)
	}
	if st.Quarantined["bad"] != "deterministic failure: invariant violated" {
		t.Fatalf("quarantined cell not journaled: %v", st.Quarantined)
	}
	want := []string{TypeRunStart, TypeCellStart, TypeCellFinish, TypeCellStart, TypeCellFinish}
	if got := recordTypes(t, j.path); !reflect.DeepEqual(got, want) {
		t.Fatalf("record types = %v, want %v", got, want)
	}
}

// readRecords parses every line of a journal file, torn or not.
func readRecords(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable record %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

func recordTypes(t *testing.T, path string) []string {
	var types []string
	for _, rec := range readRecords(t, path) {
		types = append(types, rec.Type)
	}
	return types
}

// TestJournalCloseReportsWriteError: a failed append stops the journal
// and Close reports it, so a run whose journal stopped recording (a
// full disk) is not mistaken for one that recorded everything.
func TestJournalCloseReportsWriteError(t *testing.T) {
	dir := t.TempDir()
	j, err := Create(dir, "run-ro", testHeader{Tool: "t"})
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close()
	ro, err := os.Open(j.path)
	if err != nil {
		t.Fatal(err)
	}
	j.f = ro // every write through a read-only handle fails
	j.CellStart("a/base/114")
	j.CellFinish("a/base/114", StatusDone, "")
	if err := j.Close(); err == nil {
		t.Fatal("Close returned nil after a failed append")
	}
	if got := recordTypes(t, j.path); len(got) != 1 {
		t.Fatalf("records after the failed append: %v, want the header alone", got)
	}
}

// TestJournalLoadAdvancesPastSkippedRecords: a verified record that Load
// skips (a legacy cell_retry, an unknown type) still took a seq, so a
// resumed journal appends past it instead of reusing it.
func TestJournalLoadAdvancesPastSkippedRecords(t *testing.T) {
	for _, tc := range []struct{ name, typ string }{
		{"legacy cell_retry", "cell_retry"},
		{"unknown type", "cell_paused"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := Create(dir, "run-s", testHeader{Tool: "t"})
			if err != nil {
				t.Fatal(err)
			}
			j.CellStart("a/base/114")
			j.append(Record{Type: tc.typ, Cell: "a/base/114", Reason: "watchdog under chaos"})
			j.Close()
			st, err := Load(dir, "run-s")
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Warnings) != 1 {
				t.Fatalf("skipped record must warn once: %v", st.Warnings)
			}
			j, err = OpenAppend(dir, "run-s", st.NextSeq)
			if err != nil {
				t.Fatal(err)
			}
			j.CellStart("b/base/114")
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir, "run-s"); err != nil {
				t.Fatal(err)
			}
			recs := readRecords(t, j.path)
			for i := 1; i < len(recs); i++ {
				if recs[i].Seq <= recs[i-1].Seq {
					t.Fatalf("seq %d (%s) follows seq %d (%s): not strictly increasing",
						recs[i].Seq, recs[i].Type, recs[i-1].Seq, recs[i-1].Type)
				}
			}
		})
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

// TestList enumerates journals and tolerates absent directories.
func TestList(t *testing.T) {
	dir := t.TempDir()
	ids, err := List(dir + "/does-not-exist")
	if err != nil || ids != nil {
		t.Fatalf("List on missing dir = %v, %v; want nil, nil", ids, err)
	}
	writeJournal(t, dir, true)
	if _, err := Create(dir, "run-2", testHeader{Tool: "tusd"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/notes.txt", []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err = List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "run-1" || ids[1] != "run-2" {
		t.Fatalf("List = %v, want [run-1 run-2]", ids)
	}
}

// TestCreateErrors: an unmarshalable header and an unusable directory
// both fail up front instead of leaving a torn journal.
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
}
