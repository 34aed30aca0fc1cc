package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"tusim/internal/supervise"
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
	var out []Fig9JSON
	for _, row := range rows {
		out = append(out, Fig9JSON{Bench: row.Bench, Stalls: mechMap(row.Stalls)})
	}
	return json.MarshalIndent(out, "", "  ")
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

// TestKillAndResumeByteIdentical: SIGKILL a journaled figure run at a
// random point mid-matrix, resume it from the journal + cache, and
// require the resumed figure bytes to equal an uninterrupted run's — at
// both -j 1 and -j 4.
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

			// Poll the journal until the run is mid-flight, then kill it.
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
				st, err := supervise.Load(jdir, resumeRunID)
				if err == nil && (len(st.Done) >= killAfter || st.Finished) {
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
			done := len(st.Done)
			if done == 0 {
				t.Fatal("journal recorded no completed cells before the kill")
			}

			// Resume in-process: preload the quarantine list, reopen the
			// journal for appending, rebuild the same figure.
			res := resumeRunner(t, dir, workers)
			for k, reason := range st.Quarantined {
				res.Supervisor.Quarantine(k, reason)
			}
			j, err := supervise.OpenAppend(jdir, resumeRunID, st.NextSeq)
			if err != nil {
				t.Fatal(err)
			}
			res.Supervisor.SetJournal(j)
			got, err := fig9Bytes(res)
			if err != nil {
				t.Fatal(err)
			}
			j.Finish()
			j.Close()

			// Every journaled-done cell must have been served from the
			// disk cache, not resimulated.
			if int(res.cellsFromC.Load()) < done {
				t.Fatalf("resume loaded %d cells from cache, want >= %d (the journaled done set)",
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
				t.Fatal("resumed run did not journal run_finish")
			}
		})
	}
}
