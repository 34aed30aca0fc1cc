package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"tusim/internal/config"
	"tusim/internal/supervise"
	"tusim/internal/workload"
)

// The kill-and-resume test re-executes this test binary as a child
// (TestResumeChild), SIGKILLs it mid-figure, then resumes the run
// in-process from the journal + disk cache and asserts the resumed
// figure output is byte-identical to an uninterrupted run.

const (
	resumeOps   = 20_000
	resumePOps  = 500
	resumeRunID = "killtest"
)

// fig9Bytes renders the Fig. 9 report as canonical JSON bytes — the
// byte-identity oracle for the resume test.
func fig9Bytes(r *Runner) ([]byte, error) {
	rows, err := built[Fig9Rows](r, fig9Spec{})
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(rows, "", "  ")
}

// resumeRunner builds the runner both halves of the test share: same
// scale and seed, supervised, cached under dir/cache.
func resumeRunner(t *testing.T, dir string, workers int) *Runner {
	t.Helper()
	cache, err := NewDiskCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewQuickRunner()
	r.Ops = resumeOps
	r.ParallelOps = resumePOps
	r.Workers = workers
	r.Cache = cache
	r.Supervisor = NewSupervisor(0)
	return r
}

// TestResumeChild is the helper half of TestKillAndResumeByteIdentical:
// it only runs for real when re-executed with TUS_RESUME_DIR set, and
// is the process the parent SIGKILLs mid-run.
func TestResumeChild(t *testing.T) {
	dir := os.Getenv("TUS_RESUME_DIR")
	if dir == "" {
		t.Skip("helper process for TestKillAndResumeByteIdentical")
	}
	workers, _ := strconv.Atoi(os.Getenv("TUS_RESUME_WORKERS"))
	r := resumeRunner(t, dir, workers)
	j, err := supervise.Create(filepath.Join(dir, "journal"), resumeRunID, map[string]int{"ops": resumeOps})
	if err != nil {
		t.Fatal(err)
	}
	r.Supervisor.SetJournal(j)
	if _, err := fig9Bytes(r); err != nil {
		t.Fatal(err)
	}
	j.Finish()
	j.Close()
}

// cacheEntries counts the finished cells in a cache dir: a Put renames
// a whole entry into place, so every *.json file is complete.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "cache", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestKillAndResumeByteIdentical: SIGKILL a journaled figure run at a
// random point mid-matrix, resume it from the journal + cache, and
// require the resumed figure bytes to equal an uninterrupted run's — at
// both -j 1 and -j 4. The cache is the record of finished cells: the
// resume must serve every entry the kill left from it.
func TestKillAndResumeByteIdentical(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL")
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			jdir := filepath.Join(dir, "journal")

			cmd := exec.Command(os.Args[0], "-test.run", "TestResumeChild")
			cmd.Env = append(os.Environ(),
				"TUS_RESUME_DIR="+dir,
				fmt.Sprintf("TUS_RESUME_WORKERS=%d", workers))
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}

			// Poll the cache until the run is mid-flight, then kill it.
			// SIGKILL gives the child no chance to flush or tidy: whatever
			// the journal and cache hold at that instant is the crash
			// state the resume must recover from.
			const killAfter = 8
			deadline := time.Now().Add(120 * time.Second)
			for {
				if time.Now().After(deadline) {
					cmd.Process.Kill()
					cmd.Wait()
					t.Fatal("child never reached the kill threshold")
				}
				if cacheEntries(t, dir) >= killAfter {
					break
				}
				if st, err := supervise.Load(jdir, resumeRunID); err == nil && st.Finished {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			cmd.Process.Signal(syscall.SIGKILL)
			cmd.Wait()

			st, err := supervise.Load(jdir, resumeRunID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Finished {
				t.Skip("child finished before SIGKILL landed; nothing to resume")
			}
			done := cacheEntries(t, dir)
			if done == 0 {
				t.Fatal("the cache holds no finished cell after the kill")
			}

			// Resume in-process: preload the quarantine list, continue the
			// journal, rebuild the same figure.
			res := resumeRunner(t, dir, workers)
			for k, reason := range st.Quarantined {
				res.Supervisor.Quarantine(k, reason)
			}
			j := supervise.Continue(jdir, st)
			res.Supervisor.SetJournal(j)
			got, err := fig9Bytes(res)
			if err != nil {
				t.Fatal(err)
			}
			j.Finish()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Every cell the cache held at the kill must have been served
			// from it, not resimulated.
			if int(res.cellsFromC.Load()) < done {
				t.Fatalf("resume loaded %d cells from cache, want >= %d (the entries at the kill)",
					res.cellsFromC.Load(), done)
			}

			// Byte-identity against an uninterrupted run in a fresh dir.
			base := resumeRunner(t, filepath.Join(dir, "fresh"), workers)
			want, err := fig9Bytes(base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed figure differs from uninterrupted run\nresumed:\n%s\nfresh:\n%s", got, want)
			}

			// The resumed journal must now record clean completion.
			st2, err := supervise.Load(jdir, resumeRunID)
			if err != nil {
				t.Fatal(err)
			}
			if !st2.Finished {
				t.Fatal("resumed run did not journal its finish")
			}
		})
	}
}

// TestResumeKeepsQuarantines: a journaled run saves the cell it
// quarantined. A resumed run preloads it from the journal, never
// simulates it and degrades the figure exactly as the first run did, and
// a cell the resumed run quarantines joins the first in the state file.
func TestResumeKeepsQuarantines(t *testing.T) {
	const first, second = "505.mcf/TUS/114", "505.mcf/TUS/32"
	jdir := t.TempDir()
	runner := func(hook func(key string) error) *Runner {
		r := NewQuickRunner()
		r.Ops = 2000
		r.ParallelOps = 500
		r.Workers = 2
		r.Supervisor = NewSupervisor(0)
		r.testHookSim = func(_ context.Context, key string) error { return hook(key) }
		return r
	}
	poisoned := errors.New("poisoned cell")

	r1 := runner(func(key string) error {
		if key == first {
			return poisoned
		}
		return nil
	})
	j, err := supervise.Create(jdir, "qrun", map[string]int{"ops": 2000})
	if err != nil {
		t.Fatal(err)
	}
	r1.Supervisor.SetJournal(j)
	if _, err := fig9Bytes(r1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := supervise.Load(jdir, "qrun")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[first] == "" {
		t.Fatalf("journaled quarantines = %v, want %s alone", st.Quarantined, first)
	}

	var firstCalls atomic.Int64
	r2 := runner(func(key string) error {
		switch key {
		case first:
			firstCalls.Add(1)
		case second:
			return poisoned
		}
		return nil
	})
	for k, reason := range st.Quarantined {
		r2.Supervisor.Quarantine(k, reason)
	}
	j = supervise.Continue(jdir, st)
	r2.Supervisor.SetJournal(j)
	if _, err := fig9Bytes(r2); err != nil {
		t.Fatal(err)
	}
	if n := firstCalls.Load(); n != 0 {
		t.Fatalf("the resumed run simulated the quarantined %s %d times", first, n)
	}
	if got, want := r2.DegradedCells(), r1.DegradedCells(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed degraded cells = %+v, want the first run's %+v", got, want)
	}
	b, _ := workload.ByName("505.mcf")
	if _, err := r2.Run(b, config.TUS, 32); !isQuarantined(err) {
		t.Fatalf("%s: want a quarantine, got %v", second, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := supervise.Load(jdir, "qrun")
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Quarantined) != 2 || st2.Quarantined[first] != st.Quarantined[first] || st2.Quarantined[second] == "" {
		t.Fatalf("journaled quarantines after the resume = %v, want %s kept and %s added", st2.Quarantined, first, second)
	}
}
