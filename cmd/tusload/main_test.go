package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The tests re-execute this test binary as tusload itself (the pattern
// of cmd/tusbench, cmd/tusim and cmd/tuscheck): with TUSLOAD_TEST_MAIN
// set, TestMain hands the process to main(), so exit codes and stderr
// are the real binary's.
func TestMain(m *testing.M) {
	if os.Getenv("TUSLOAD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRefusedCommandLines: every malformed invocation is refused before
// any figure is rendered or daemon spawned, with the rule on stderr.
func TestRefusedCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"neither target", nil, 1, "exactly one of -base or -tusd"},
		{"both targets", []string{"-base", "http://127.0.0.1:1", "-tusd", "bin/tusd"}, 1, "exactly one of -base or -tusd"},
		{"soak without a daemon to own", []string{"-base", "http://127.0.0.1:1", "-soak"}, 1, "use -tusd, not -base"},
		{"malformed figure list", []string{"-base", "http://127.0.0.1:1", "-figs", "9,x"}, 1, `bad figure "x"`},
		{"empty figure list", []string{"-base", "http://127.0.0.1:1", "-figs", ","}, 1, "no figures"},
		{"removed -gate flag", []string{"-gate"}, 2, "flag provided but not defined: -gate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "TUSLOAD_TEST_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatalf("tusload %v: %v", tc.args, err)
			}
			if code := cmd.ProcessState.ExitCode(); code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr.String())
			}
			if stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("stdout %q, stderr %q; want empty stdout and %q on stderr", stdout.String(), stderr.String(), tc.stderr)
			}
		})
	}
}
