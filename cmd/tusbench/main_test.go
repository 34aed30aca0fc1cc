package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// product — not the figure sweep — byte for byte. A flag that would
// change the journaled settings is refused, not silently dropped.
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

// TestProductBytesPinned is the identity rule for the evaluation's
// products: the figure tables, the JSON report, the histogram report
// and a DSE sweep hash to the same bytes at the quick scale, whatever
// the internals that build them. A change that moves a number must
// re-pin the hash here and say why in CHANGES.md.
func TestProductBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick evaluation four times")
	}
	for _, tc := range []struct {
		product string
		args    []string
		sha256  string
	}{
		{"figures", []string{"-quick", "-j", "0"}, "8de47ca786b24b846d96ac8ed91f4eb3c9fab5e3a4573cdde43ad0033ba858ba"},
		{"json report", []string{"-quick", "-j", "0", "-json"}, "ceaa69ebf006f1b33ff3148de27d373968879fd9cecccdb9353793fa661b4958"},
		{"histograms", []string{"-quick", "-hist"}, "6fc4f8429321c77cb24515474872ce1070234d1c7bb49859b05d1e897cb362b1"},
		{"dse", []string{"-quick", "-dse", "502.gcc5"}, "0ce05647f7cc747f5ac0a195932e23947148e5667077183cbcc9985b0e822508"},
	} {
		stdout, stderr, code := tusbench(t, tc.args...)
		if code != 0 {
			t.Fatalf("tusbench %v: exit %d: %s", tc.args, code, stderr)
		}
		if sum := sha256.Sum256(stdout); hex.EncodeToString(sum[:]) != tc.sha256 {
			t.Errorf("the %s product (tusbench %v) hashes to %x, pinned %s: a re-pin is a changed number and is explained in CHANGES.md",
				tc.product, strings.Join(tc.args, " "), sum, tc.sha256)
		}
	}
}
