package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"tusim/internal/harness"
	"tusim/internal/supervise"
)

// The tests re-execute this test binary as tusbench itself: with
// TUSBENCH_TEST_MAIN set, TestMain hands the process to main(), so exit
// codes and the stdout/stderr split are the real binary's.
func TestMain(m *testing.M) {
	if os.Getenv("TUSBENCH_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tusbenchCmd is tusbench with args, killed if ctx ends first.
func tusbenchCmd(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TUSBENCH_TEST_MAIN=1")
	return cmd
}

func tusbench(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := tusbenchCmd(context.Background(), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("tusbench %v: %v", args, err)
	}
	return out.Bytes(), errb.Bytes(), cmd.ProcessState.ExitCode()
}

// TestCLIAgainstRegistry pins the CLI to the registry table it is a thin
// shell over: what it lists, what it renders, and what it refuses.
func TestCLIAgainstRegistry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout func(t *testing.T) []byte
		stderr string
	}{
		{
			name:   "unknown figure",
			args:   []string{"-fig", "7"},
			code:   1,
			stdout: func(*testing.T) []byte { return nil },
			stderr: "unknown figure 7",
		},
		{
			name: "list",
			args: []string{"-list"},
			stdout: func(t *testing.T) []byte {
				var buf bytes.Buffer
				enc := json.NewEncoder(&buf)
				enc.SetIndent("", "  ")
				if err := enc.Encode(harness.List()); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
		},
		{
			name: "figure 9",
			args: []string{"-quick", "-ops", "2500", "-parallel-ops", "300", "-fig", "9", "-j", "1"},
			stdout: func(t *testing.T) []byte {
				r := harness.NewQuickRunner()
				r.Ops, r.ParallelOps, r.Workers = 2500, 300, 1
				var buf bytes.Buffer
				if err := harness.RenderFigure(r, 9, &buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := tusbench(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if want := tc.stdout(t); !bytes.Equal(stdout, want) {
				t.Fatalf("stdout differs from the registry's bytes:\ngot:\n%s\nwant:\n%s", stdout, want)
			}
			if !strings.Contains(string(stderr), tc.stderr) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.stderr)
			}
		})
	}
}

// TestResumeRestoresMode: the journal header records the run's flags,
// so the resume command tusbench prints regenerates that product — not
// the figure sweep — byte for byte. A flag that would change the
// journaled settings is refused, not silently dropped, and so is a
// header this binary cannot restore.
func TestResumeRestoresMode(t *testing.T) {
	jdir, cdir := t.TempDir(), t.TempDir()
	hist := []string{"-quick", "-ops", "2500", "-parallel-ops", "300", "-hist"}
	want, stderr, code := tusbench(t, hist...)
	if code != 0 || len(want) == 0 {
		t.Fatalf("uninterrupted -hist run: exit %d, %d bytes (stderr: %s)", code, len(want), stderr)
	}
	_, stderr, code = tusbench(t, append(hist, "-journal", "-journal-dir", jdir, "-cache", cdir)...)
	if code != 0 {
		t.Fatalf("journaled -hist run: exit %d (stderr: %s)", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(jdir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journal dir holds runs %v (err %v), want exactly one", files, err)
	}
	id := strings.TrimSuffix(filepath.Base(files[0]), ".json")
	got, stderr, code := tusbench(t, "-resume", id, "-journal-dir", jdir, "-j", "2", "-v")
	if code != 0 {
		t.Fatalf("resume: exit %d (stderr: %s)", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed -hist run printed something else:\ngot:\n%s\nwant:\n%s", got, want)
	}

	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-fig", "10", "-seed", "3"}, "-fig"},
		{[]string{"-journal"}, "-journal"},
	} {
		args := append([]string{"-resume", id, "-journal-dir", jdir}, tc.args...)
		got, stderr, code := tusbench(t, args...)
		if code != 2 || len(got) != 0 || !strings.Contains(string(stderr), tc.flag+" cannot be combined with -resume") {
			t.Fatalf("tusbench %v: exit %d, %d stdout bytes, stderr %q; want exit 2, no stdout, stderr naming %s", args, code, len(got), stderr, tc.flag)
		}
	}

	// A header naming a flag this binary lacks is refused, and so is one
	// with no flags at all (a journal written before the header held
	// them).
	for _, tc := range []struct {
		id     string
		header any
		stderr string
	}{
		{"future", runHeader{Version: harness.Version, Flags: map[string]string{"hist": "true", "fig99": "1"}}, "no such flag -fig99"},
		{"old", map[string]any{"mode": "hist", "quick": true}, "no flags"},
	} {
		j, err := supervise.Create(jdir, tc.id, tc.header)
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		got, stderr, code := tusbench(t, "-resume", tc.id, "-journal-dir", jdir)
		if code != 1 || len(got) != 0 || !strings.Contains(string(stderr), tc.stderr) {
			t.Fatalf("resume %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr naming %q", tc.id, code, got, stderr, tc.stderr)
		}
	}
}

// TestKilledRunResumesByteIdentical is the crash-and-resume contract
// through the binary and a real process death (internal/harness's
// TestKillAndResumeByteIdentical resumes in-process): a journaled Fig. 9
// run is SIGKILLed once its result cache holds 8 finished cells, and
// `tusbench -resume <run-id>` must print exactly what an uninterrupted
// run prints, serving every cell the kill left cached. Identical bytes
// from two equally degraded runs prove nothing, so neither run may
// report a quarantine or a journal that stopped recording; a run that
// finished before the kill landed proves nothing either, and skips.
func TestKilledRunResumesByteIdentical(t *testing.T) {
	scale := []string{"-quick", "-ops", "20000", "-parallel-ops", "500", "-fig", "9", "-j", "4"}
	dir := t.TempDir()
	cache, jdir := filepath.Join(dir, "cache"), filepath.Join(dir, "journal")
	want, wantErr, code := tusbench(t, append(scale, "-cache", filepath.Join(dir, "baseline"))...)
	if code != 0 || len(want) == 0 {
		t.Fatalf("uninterrupted run: exit %d, %d bytes (stderr: %s)", code, len(want), wantErr)
	}

	killed := tusbenchCmd(context.Background(), append(scale, "-cache", cache, "-journal", "-journal-dir", jdir)...)
	var killedErr bytes.Buffer
	killed.Stderr = &killedErr
	if err := killed.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { killed.Wait(); close(exited) }()
	cached := func() int {
		files, err := filepath.Glob(filepath.Join(cache, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	// The cache is the record of finished cells: once it shows real
	// progress, SIGKILL leaves the run no chance to flush or tidy.
	for deadline := time.After(2 * time.Minute); cached() < 8; {
		select {
		case <-exited:
			if killed.ProcessState.ExitCode() != 0 {
				t.Fatalf("journaled run failed before the kill: exit %d (stderr: %s)", killed.ProcessState.ExitCode(), killedErr.String())
			}
			t.Skip("the journaled run finished before it cached 8 cells; nothing to resume")
		case <-deadline:
			killed.Process.Kill()
			<-exited
			t.Fatalf("the journaled run cached %d cells in 2 minutes, want 8 (stderr: %s)", cached(), killedErr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	killed.Process.Signal(syscall.SIGKILL)
	<-exited
	if ws, ok := killed.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() {
		t.Skipf("the journaled run exited %d before the SIGKILL landed; nothing to resume", killed.ProcessState.ExitCode())
	}
	done := cached()

	files, err := filepath.Glob(filepath.Join(jdir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journal dir holds runs %v (err %v), want exactly one", files, err)
	}
	id := strings.TrimSuffix(filepath.Base(files[0]), ".json")
	// The run takes about a second. A resume that lost the journaled
	// scale would run the full evaluation: stop it rather than wait.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resume := tusbenchCmd(ctx, "-resume", id, "-journal-dir", jdir, "-v")
	var got, gotErr bytes.Buffer
	resume.Stdout, resume.Stderr = &got, &gotErr
	if err := resume.Run(); err != nil {
		t.Fatalf("resume of a run killed with %d cells cached: %v (stderr: %s)", done, err, gotErr.String())
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("resumed run printed something else:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
	if hit := countLines(gotErr.Bytes(), "  hit "); hit < done {
		t.Fatalf("resume served %d cells from the cache, want >= %d (the entries at the kill):\n%s", hit, done, gotErr.String())
	}
	for run, stderr := range map[string]string{"uninterrupted": string(wantErr), "resumed": gotErr.String()} {
		for _, bad := range []string{"degraded by quarantine", "stopped recording"} {
			if strings.Contains(stderr, bad) {
				t.Fatalf("the %s run reported %q on stderr:\n%s", run, bad, stderr)
			}
		}
	}
}

// TestVerboseStaysOffStdout: -v is run chatter, so it goes to stderr
// and stdout keeps the figure's bytes at any -j. The chatter is also
// the "what was simulated" signal TestProductBytesPinned reads: one
// `ran` line per cell on a cold cache, only `hit` lines on a warm one.
func TestVerboseStaysOffStdout(t *testing.T) {
	fig9 := []string{"-quick", "-ops", "2500", "-parallel-ops", "300", "-fig", "9"}
	want, stderr, code := tusbench(t, fig9...)
	if code != 0 || len(want) == 0 {
		t.Fatalf("plain run: exit %d, %d bytes (stderr: %s)", code, len(want), stderr)
	}
	cells := len(harness.FigureCellUnion(9))
	verbose := append(fig9, "-v", "-cache", t.TempDir())
	for _, run := range []struct {
		name     string
		ran, hit int
	}{{"cold", cells, 0}, {"warm", 0, cells}} {
		got, stderr, code := tusbench(t, verbose...)
		if code != 0 {
			t.Fatalf("%s -v run: exit %d (stderr: %s)", run.name, code, stderr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s -v run changed stdout:\ngot:\n%s\nwant:\n%s", run.name, got, want)
		}
		if ran, hit := countLines(stderr, "  ran "), countLines(stderr, "  hit "); ran != run.ran || hit != run.hit {
			t.Fatalf("%s -v run: %d ran / %d hit lines on stderr, want %d / %d:\n%s", run.name, ran, hit, run.ran, run.hit, stderr)
		}
	}
}

// countLines counts the lines of out that start with prefix.
func countLines(out []byte, prefix string) (n int) {
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, prefix) {
			n++
		}
	}
	return n
}

// TestProductBytesPinned is the identity rule for the evaluation's
// products: the figure tables, the JSON report, the histogram report
// and a DSE sweep hash to the same bytes at the quick scale, whatever
// the internals that build them. A change that moves a number must
// re-pin the hash here and say why in CHANGES.md. The figures and the
// JSON report (whose histogram section is read back through the cache
// entries too) are built cold into a fresh -cache and then again from
// it: the warm run prints the same bytes and simulates nothing (-v
// prints no `ran` line, only `hit` lines).
func TestProductBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick evaluation four times")
	}
	for _, tc := range []struct {
		product string
		args    []string
		sha256  string
		cached  bool
	}{
		{"figures", []string{"-quick", "-j", "0"}, "8de47ca786b24b846d96ac8ed91f4eb3c9fab5e3a4573cdde43ad0033ba858ba", true},
		{"json report", []string{"-quick", "-j", "0", "-json"}, "ceaa69ebf006f1b33ff3148de27d373968879fd9cecccdb9353793fa661b4958", true},
		{"histograms", []string{"-quick", "-hist"}, "6fc4f8429321c77cb24515474872ce1070234d1c7bb49859b05d1e897cb362b1", false},
		{"dse", []string{"-quick", "-dse", "502.gcc5"}, "0ce05647f7cc747f5ac0a195932e23947148e5667077183cbcc9985b0e822508", false},
	} {
		runs := []string{"uncached"}
		args := tc.args
		if tc.cached {
			runs = []string{"cold", "warm"}
			args = append(args, "-cache", t.TempDir(), "-v")
		}
		for _, run := range runs {
			stdout, stderr, code := tusbench(t, args...)
			if code != 0 {
				t.Fatalf("tusbench %v: exit %d: %s", args, code, stderr)
			}
			if sum := sha256.Sum256(stdout); hex.EncodeToString(sum[:]) != tc.sha256 {
				t.Errorf("the %s product (tusbench %v, %s) hashes to %x, pinned %s: a re-pin is a changed number and is explained in CHANGES.md",
					tc.product, strings.Join(args, " "), run, sum, tc.sha256)
			}
			ran, hit := countLines(stderr, "  ran "), countLines(stderr, "  hit ")
			if run == "cold" && ran == 0 || run == "warm" && (ran != 0 || hit == 0) {
				t.Errorf("%s %s run: %d ran / %d hit lines on stderr; a warm run simulates nothing:\n%s", tc.product, run, ran, hit, stderr)
			}
		}
	}
}
