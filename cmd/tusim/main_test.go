package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tusim/internal/workload"
)

// The tests re-execute this test binary as tusim itself (the pattern of
// cmd/tusbench): with TUSIM_TEST_MAIN set, TestMain hands the process to
// main(), so exit codes and the stdout/stderr split are the real
// binary's.
func TestMain(m *testing.M) {
	if os.Getenv("TUSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tusim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TUSIM_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("tusim %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestBadArgumentsExitOne: what the CLI refuses, it refuses on stderr
// with exit 1 and nothing on stdout.
func TestBadArgumentsExitOne(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-mech", "nope"}, "nope"},
		{[]string{"-bench", "nope"}, `unknown benchmark "nope"`},
		{[]string{"-repro", "/nonexistent"}, "/nonexistent"},
	} {
		stdout, stderr, code := tusim(t, tc.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("tusim %v: exit %d, stdout %q, stderr %q; want exit 1, empty stdout, stderr containing %q",
				tc.args, code, stdout, stderr, tc.stderr)
		}
	}
}

func TestListPrintsEveryBenchmark(t *testing.T) {
	stdout, stderr, code := tusim(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	rows := strings.Split(strings.TrimSpace(stdout), "\n")[1:] // drop the header
	all := workload.All()
	if len(rows) != len(all) {
		t.Fatalf("-list printed %d rows, workload.All() has %d", len(rows), len(all))
	}
	for i, b := range all {
		if f := strings.Fields(rows[i]); len(f) != 4 || f[0] != b.Name {
			t.Errorf("row %d = %q, want benchmark %s", i, rows[i], b.Name)
		}
	}
}

func TestCheckedRunReportsOK(t *testing.T) {
	stdout, stderr, code := tusim(t, "-bench", "502.gcc2", "-mech", "TUS", "-ops", "4000", "-check")
	if code != 0 || !strings.Contains(stdout, "TSO checker: OK") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
