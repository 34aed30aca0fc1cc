package supervise

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The run journal is one JSON state file per run, <dir>/<run-id>.json
// (.tusjournal/ by convention): the run's header, the cells it
// quarantined and whether it finished. Every change rewrites the whole
// file through a temp file, fsync and rename, so a kill leaves the old
// state or the new one, never a torn file. Finished cells are not
// recorded: the content-addressed result cache holds exactly the cells
// that finished, and a resumed run is served them from there.

// RunState is the content of a run's state file.
type RunState struct {
	RunID string `json:"-"`
	// Header carries the run's reconstruction data (tool flags, scale,
	// cache dir); the journal treats it as opaque bytes.
	Header json.RawMessage `json:"header"`
	// Quarantined maps poisoned cells to their recorded reason.
	Quarantined map[string]string `json:"quarantined"`
	// Finished reports that the run completed; resuming it replays the
	// run from the result cache.
	Finished bool `json:"finished"`
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

// Journal is an open run journal: the run's state, saved whole on every
// change. Safe for concurrent use.
type Journal struct {
	RunID string
	dir   string

	mu   sync.Mutex
	st   RunState
	werr error // first save error; later changes are dropped
}

// statePath is the canonical file location for a run.
func statePath(dir, runID string) string {
	return filepath.Join(dir, runID+".json")
}

// Create starts a new journal for runID under dir and saves its first
// state, so a run is journaled from its start or not at all.
func Create(dir, runID string, header any) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("supervise: journal dir: %w", err)
	}
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, fmt.Errorf("supervise: journal header: %w", err)
	}
	j := Continue(dir, &RunState{RunID: runID, Header: hdr})
	if err := j.save(); err != nil {
		return nil, err
	}
	return j, nil
}

// Continue reopens a loaded run's journal (the resume path). Its saves
// keep st's header and quarantines.
func Continue(dir string, st *RunState) *Journal {
	j := &Journal{RunID: st.RunID, dir: dir, st: *st}
	j.st.Quarantined = maps.Clone(st.Quarantined)
	if j.st.Quarantined == nil {
		j.st.Quarantined = map[string]string{}
	}
	return j
}

// save writes the whole state to a temp file, syncs it and renames it
// over the run's state file. The caller holds j.mu or owns j alone.
func (j *Journal) save() error {
	data, err := json.MarshalIndent(&j.st, "", "  ")
	if err != nil {
		return fmt.Errorf("supervise: journal %s: %w", j.RunID, err)
	}
	tmp, err := os.CreateTemp(j.dir, j.RunID+".tmp*")
	if err != nil {
		return fmt.Errorf("supervise: journal %s: %w", j.RunID, err)
	}
	_, err = tmp.Write(append(data, '\n'))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), statePath(j.dir, j.RunID))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("supervise: journal %s: %w", j.RunID, err)
	}
	return nil
}

// update applies one change to the state and saves it. A save error is
// sticky: journaling never fails the run, so later changes are dropped
// and Close reports the error.
func (j *Journal) update(change func(st *RunState)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return
	}
	change(&j.st)
	j.werr = j.save()
}

// quarantine records a quarantined cell; a cell keeps its first reason.
func (j *Journal) quarantine(key, reason string) {
	j.update(func(st *RunState) {
		if _, dup := st.Quarantined[key]; !dup {
			st.Quarantined[key] = reason
		}
	})
}

// Finish records clean run completion.
func (j *Journal) Finish() {
	j.update(func(st *RunState) { st.Finished = true })
}

// Close returns the first save error the journal hit, if any: a journal
// that stopped recording must not pass for a complete one.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.werr
}

// Load reads the state of runID's journal under dir. A missing file, a
// file that does not decode and a state without a header are errors
// naming the run: there is nothing to resume, and resuming from an
// empty state would silently drop the run's quarantines.
func Load(dir, runID string) (*RunState, error) {
	data, err := os.ReadFile(statePath(dir, runID))
	if err != nil {
		return nil, fmt.Errorf("supervise: journal %s: %w", runID, err)
	}
	st := &RunState{RunID: runID}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("supervise: journal %s: %w", runID, err)
	}
	if len(st.Header) == 0 {
		return nil, fmt.Errorf("supervise: journal %s has no run header", runID)
	}
	return st, nil
}
