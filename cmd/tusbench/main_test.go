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
