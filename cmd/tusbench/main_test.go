package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

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

func tusbench(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TUSBENCH_TEST_MAIN=1")
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

// TestResumeRestoresMode: the journal header records what the run was
// producing, so the resume command tusbench prints regenerates that
// product — not the figure sweep — byte for byte.
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
	ids, err := supervise.List(jdir)
	if err != nil || len(ids) != 1 {
		t.Fatalf("journal dir holds runs %v (err %v), want exactly one", ids, err)
	}
	got, stderr, code := tusbench(t, "-resume", ids[0], "-journal-dir", jdir)
	if code != 0 {
		t.Fatalf("resume: exit %d (stderr: %s)", code, stderr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed -hist run printed something else:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A header whose mode this binary does not know is refused.
	j, err := supervise.Create(jdir, "future", map[string]any{"mode": "fig99", "quick": true})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	got, stderr, code = tusbench(t, "-resume", "future", "-journal-dir", jdir)
	if code != 1 || len(got) != 0 || !strings.Contains(string(stderr), `unknown run mode "fig99"`) {
		t.Fatalf("unknown mode: exit %d, stdout %q, stderr %q", code, got, stderr)
	}
}

// TestVerboseStaysOffStdout: -v is run chatter, so it goes to stderr
// and stdout keeps the figure's bytes at any -j. The chatter is also
// the "what was simulated" signal CI reads: one `ran` line per cell on
// a cold cache, only `hit` lines on a warm one.
func TestVerboseStaysOffStdout(t *testing.T) {
	fig9 := []string{"-quick", "-ops", "2500", "-parallel-ops", "300", "-fig", "9"}
	want, stderr, code := tusbench(t, fig9...)
	if code != 0 || len(want) == 0 {
		t.Fatalf("plain run: exit %d, %d bytes (stderr: %s)", code, len(want), stderr)
	}
	count := func(stderr []byte, prefix string) (n int) {
		for _, line := range strings.Split(string(stderr), "\n") {
			if strings.HasPrefix(line, prefix) {
				n++
			}
		}
		return n
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
		if ran, hit := count(stderr, "  ran "), count(stderr, "  hit "); ran != run.ran || hit != run.hit {
			t.Fatalf("%s -v run: %d ran / %d hit lines on stderr, want %d / %d:\n%s", run.name, ran, hit, run.ran, run.hit, stderr)
		}
	}
}
