package supervise

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The run journal is an append-only JSONL file under the journal
// directory (.tusjournal/ by convention), one self-checksummed record
// per line. Crash consistency comes from three properties:
//
//  1. Birth by temp+rename: the header record is written to a temp file
//     and renamed into place, so a journal either exists with a valid
//     header or not at all — never torn.
//  2. Append-only records, each carrying the SHA-256 of its own
//     canonical JSON, synced per write: a SIGKILL can truncate at most
//     the tail record, and any torn/corrupted/duplicated record is
//     detected and skipped on load, never fatal.
//  3. Replay semantics: a cell with a start but no finish was in flight
//     at the kill and is simply re-armed; finished cells are skipped via
//     the journal plus the content-addressed disk cache; quarantined
//     cells stay quarantined.

// Record types.
const (
	TypeRunStart   = "run_start"
	TypeCellStart  = "cell_start"
	TypeCellFinish = "cell_finish"
	TypeRunFinish  = "run_finish"
)

// Cell finish statuses.
const (
	StatusDone        = "done"
	StatusQuarantined = "quarantined"
)

// Record is one journal line. SHA256 is the hex SHA-256 of the record's
// canonical JSON with the sha256 field empty.
type Record struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"`
	UnixMS int64  `json:"t,omitempty"`
	Cell   string `json:"cell,omitempty"`
	Status string `json:"status,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Header carries the run's reconstruction data (tool flags, scale,
	// cache dir) on the run_start record; the journal treats it as
	// opaque bytes.
	Header json.RawMessage `json:"header,omitempty"`
	SHA256 string          `json:"sha256"`
}

// seal computes and installs the record's self-checksum.
func (r *Record) seal() error {
	r.SHA256 = ""
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	r.SHA256 = hex.EncodeToString(sum[:])
	return nil
}

// verify recomputes the checksum and reports whether it matches.
func (r Record) verify() bool {
	want := r.SHA256
	r.SHA256 = ""
	data, err := json.Marshal(r)
	if err != nil {
		return false
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]) == want
}

// NewRunID returns a sortable, collision-resistant run identifier
// (wall-clock prefix + random suffix).
func NewRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock alone; the timestamp still
		// disambiguates runs more than a second apart.
		return time.Now().UTC().Format("20060102-150405")
	}
	return time.Now().UTC().Format("20060102-150405") + "-" + hex.EncodeToString(b[:])
}

// Journal is an open, appendable run journal. Safe for concurrent use.
type Journal struct {
	RunID string
	path  string

	mu   sync.Mutex
	f    *os.File
	seq  int
	werr error // first write or sync error; later appends are dropped
}

// journalPath is the canonical file location for a run.
func journalPath(dir, runID string) string {
	return filepath.Join(dir, runID+".jsonl")
}

// Create starts a new journal for runID under dir, committing the
// header record via temp+rename so a crash during creation can never
// leave a torn journal behind.
func Create(dir, runID string, header any) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("supervise: journal dir: %w", err)
	}
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("supervise: journal header: %w", err)
	}
	rec := Record{Seq: 0, Type: TypeRunStart, UnixMS: time.Now().UnixMilli(), Header: hdr}
	if err := rec.seal(); err != nil {
		return nil, err
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(dir, runID+".tmp*")
	if err != nil {
		return nil, err
	}
	if _, err := tmp.Write(append(line, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	path := journalPath(dir, runID)
	if err := os.Rename(tmp.Name(), path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, err
	}
	// The renamed fd still points at the journal inode; keep appending
	// through it.
	return &Journal{RunID: runID, path: path, f: tmp, seq: 1}, nil
}

// OpenAppend reopens an existing journal for appending (the resume
// path). nextSeq should be one past the last valid record's Seq.
func OpenAppend(dir, runID string, nextSeq int) (*Journal, error) {
	path := journalPath(dir, runID)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// If the kill truncated a torn tail record mid-line, appending would
	// otherwise glue the next record onto it and corrupt BOTH; start
	// resumed output on a fresh line. Loaders skip blank lines.
	if st, serr := f.Stat(); serr == nil && st.Size() > 0 {
		buf := make([]byte, 1)
		if _, rerr := f.ReadAt(buf, st.Size()-1); rerr == nil && buf[0] != '\n' {
			f.Write([]byte("\n"))
		}
	}
	return &Journal{RunID: runID, path: path, f: f, seq: nextSeq}, nil
}

// append seals and writes one record, syncing so the record survives a
// SIGKILL immediately after the call returns. A write or sync error is
// sticky: journaling is best-effort and never fails the run, so later
// appends are dropped and Close reports the error.
func (j *Journal) append(rec Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil || j.werr != nil {
		return
	}
	rec.Seq = j.seq
	rec.UnixMS = time.Now().UnixMilli()
	if err := rec.seal(); err != nil {
		j.werr = err
		return
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		j.werr = err
		return
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.werr = err
		return
	}
	if err := j.f.Sync(); err != nil {
		j.werr = err
		return
	}
	j.seq++
}

// CellStart journals a cell entering execution.
func (j *Journal) CellStart(key string) {
	j.append(Record{Type: TypeCellStart, Cell: key})
}

// CellFinish journals a cell's terminal state (done or quarantined).
func (j *Journal) CellFinish(key, status, reason string) {
	j.append(Record{Type: TypeCellFinish, Cell: key, Status: status, Reason: reason})
}

// Finish journals clean run completion.
func (j *Journal) Finish() {
	j.append(Record{Type: TypeRunFinish})
}

// Close closes the journal file. It returns the first write or sync
// error any append hit, else the close error: a journal that stopped
// recording must not pass for a complete one.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.werr
	}
	err := j.f.Close()
	j.f = nil
	if j.werr != nil {
		return j.werr
	}
	return err
}

// RunState is a journal replayed into resumable form. Corrupt records
// degrade to Warnings entries, never load failures.
type RunState struct {
	RunID  string
	Header json.RawMessage
	// Done lists cells with a finish record of status "done".
	Done map[string]bool
	// Quarantined maps poisoned cells to their recorded reason.
	Quarantined map[string]string
	// InFlight lists cells with a start but no finish: in flight when
	// the run died, to be re-armed on resume.
	InFlight map[string]bool
	// Finished reports whether a run_finish record was seen (the run
	// completed; resuming it is a no-op replay).
	Finished bool
	// NextSeq is one past the last valid record, for OpenAppend.
	NextSeq int
	// Warnings lists tolerated corruption (truncated tail, checksum
	// mismatches, duplicate finishes).
	Warnings []string
}

// Load replays the journal for runID under dir. It never fails on
// record-level corruption: a truncated tail, a bad checksum, or a
// duplicate finish is skipped with a warning. Only a missing/unreadable
// file or a corrupt header record is an error (there is nothing to
// resume without the header).
func Load(dir, runID string) (*RunState, error) {
	data, err := os.ReadFile(journalPath(dir, runID))
	if err != nil {
		return nil, fmt.Errorf("supervise: journal: %w", err)
	}
	st := &RunState{
		RunID:       runID,
		Done:        map[string]bool{},
		Quarantined: map[string]string{},
		InFlight:    map[string]bool{},
	}
	started := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			st.warnf("line %d: unparseable record skipped (torn tail?): %v", lineNo, err)
			continue
		}
		if !rec.verify() {
			st.warnf("line %d: checksum mismatch, %s record skipped", lineNo, rec.Type)
			continue
		}
		// Every verified record took a seq, skipped or not: a resumed
		// journal must append past all of them.
		if rec.Seq >= st.NextSeq {
			st.NextSeq = rec.Seq + 1
		}
		switch rec.Type {
		case TypeRunStart:
			if st.Header != nil {
				st.warnf("line %d: duplicate run_start skipped", lineNo)
				continue
			}
			st.Header = rec.Header
		case TypeCellStart:
			started[rec.Cell] = true
		case TypeCellFinish:
			if st.Done[rec.Cell] {
				st.warnf("line %d: duplicate finish for %s skipped", lineNo, rec.Cell)
				continue
			}
			if _, dup := st.Quarantined[rec.Cell]; dup {
				st.warnf("line %d: duplicate finish for %s skipped", lineNo, rec.Cell)
				continue
			}
			switch rec.Status {
			case StatusQuarantined:
				st.Quarantined[rec.Cell] = rec.Reason
			case StatusDone:
				st.Done[rec.Cell] = true
			default:
				st.warnf("line %d: unknown finish status %q skipped", lineNo, rec.Status)
			}
		case TypeRunFinish:
			st.Finished = true
		default:
			st.warnf("line %d: unknown record type %q skipped", lineNo, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		st.warnf("scan stopped early: %v", err)
	}
	// A file whose final bytes were cut mid-line leaves the tail without
	// a newline; the scanner still yields it and the JSON parse above
	// flags it. Nothing more to do here.
	if st.Header == nil {
		return nil, fmt.Errorf("supervise: journal %s has no valid run_start header", runID)
	}
	for c := range started {
		if !st.Done[c] {
			if _, q := st.Quarantined[c]; !q {
				st.InFlight[c] = true
			}
		}
	}
	return st, nil
}

func (st *RunState) warnf(format string, args ...any) {
	st.Warnings = append(st.Warnings, fmt.Sprintf(format, args...))
}

// List returns the run IDs with journals under dir, newest-named last
// (IDs sort lexically by creation time).
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".jsonl") {
			ids = append(ids, strings.TrimSuffix(name, ".jsonl"))
		}
	}
	return ids, nil
}
