package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tusim/internal/litmus"
)

// The tests re-execute this test binary as tuscheck itself (the pattern
// of cmd/tusim and cmd/tusbench): with TUSCHECK_TEST_MAIN set, TestMain
// hands the process to main(), so exit codes and the stdout/stderr split
// are the real binary's.
func TestMain(m *testing.M) {
	if os.Getenv("TUSCHECK_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func tuscheck(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TUSCHECK_TEST_MAIN=1")
	cmd.Dir = t.TempDir() // a violation would write mc-crash.json here
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("tuscheck %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestUnknownProgramListsSuite: a -prog name outside the suite is
// refused on stderr with exit 1, and the message names every program
// the suite does have.
func TestUnknownProgramListsSuite(t *testing.T) {
	stdout, stderr, code := tuscheck(t, "-prog", "SB,nope")
	if code != 1 || stdout != "" || !strings.Contains(stderr, `unknown litmus program "nope"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1, empty stdout, the unknown name on stderr", code, stdout, stderr)
	}
	for _, lt := range litmus.Tests() {
		if !strings.Contains(stderr, lt.Name) {
			t.Errorf("stderr %q does not list suite program %s", stderr, lt.Name)
		}
	}
}

// TestOraclePrintsStatesAndOutcomes: -oracle enumerates without running
// the simulator and prints the state count, the outcome count and each
// allowed outcome. SB's set is all four vectors — the relaxed [0 0]
// included — over 34 oracle states.
func TestOraclePrintsStatesAndOutcomes(t *testing.T) {
	stdout, stderr, code := tuscheck(t, "-oracle", "-prog", "SB")
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	want := "SB         34 states, 4 allowed outcomes\n    [0 0]\n    [0 1]\n    [1 0]\n    [1 1]\n"
	if stdout != want {
		t.Fatalf("-oracle -prog SB printed\n%s\nwant\n%s", stdout, want)
	}
}

// TestSmokeIdenticalAcrossWorkers: the CI invocation is sound, reports
// one line per cell in cell order, and prints the same bytes serial
// (-j 1) and with a worker per CPU (-j 0).
func TestSmokeIdenticalAcrossWorkers(t *testing.T) {
	serial, stderr, code := tuscheck(t, "-smoke", "-prog", "SB,MP", "-mech", "TUS", "-j", "1")
	if code != 0 {
		t.Fatalf("-j 1: exit %d, stdout %q, stderr %q", code, serial, stderr)
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "SB ") || !strings.HasPrefix(lines[1], "MP ") {
		t.Fatalf("want one report line for SB then one for MP, got %q", serial)
	}
	for _, l := range lines {
		if !strings.Contains(l, "TUS") || !strings.Contains(l, "SOUND") || strings.Contains(l, "UNSOUND") {
			t.Errorf("cell line %q is not a SOUND TUS report", l)
		}
	}
	parallel, stderr, code := tuscheck(t, "-smoke", "-prog", "SB,MP", "-mech", "TUS", "-j", "0")
	if code != 0 || parallel != serial {
		t.Fatalf("-j 0: exit %d, stderr %q, stdout\n%s\nwant the -j 1 bytes\n%s", code, stderr, parallel, serial)
	}
}

// TestCellErrorKeepsEarlierReports: a cell that fails (SB overruns a
// 30-state oracle budget) stops tuscheck with exit 1 and the error on
// stderr, after the reports of the cells before it (MP) — the same
// bytes serial and parallel.
func TestCellErrorKeepsEarlierReports(t *testing.T) {
	for _, j := range []string{"1", "2"} {
		stdout, stderr, code := tuscheck(t, "-prog", "MP,SB,LB", "-mech", "TUS", "-smoke", "-states", "30", "-j", j)
		lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
		if code != 1 || len(lines) != 1 || !strings.HasPrefix(lines[0], "MP ") || !strings.Contains(lines[0], "SOUND") {
			t.Fatalf("-j %s: exit %d, stdout %q; want exit 1 and MP's report line alone", j, code, stdout)
		}
		if !strings.HasPrefix(stderr, "tuscheck: ") || !strings.Contains(stderr, "state budget exceeded on SB") {
			t.Fatalf("-j %s: stderr %q does not name SB's state budget", j, stderr)
		}
	}
}
