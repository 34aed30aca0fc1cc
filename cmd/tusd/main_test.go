package main

import (
	"bytes"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests re-execute this test binary as tusd itself (the pattern of
// cmd/tusbench, cmd/tusim and cmd/tuscheck): with TUSD_TEST_MAIN set,
// TestMain hands the process to main(), so the signal handling, exit
// code and stderr are the real daemon's.
func TestMain(m *testing.M) {
	if os.Getenv("TUSD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tusd is one spawned daemon on a kernel-chosen loopback port.
type tusd struct {
	base   string
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

// startTusd spawns the daemon cache-less at -quick scale and returns
// once /healthz answers 200.
func startTusd(t *testing.T, extra ...string) *tusd {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	d := &tusd{}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-quick", "-cache", ""}, extra...)...)
	d.cmd.Env = append(os.Environ(), "TUSD_TEST_MAIN=1")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })

	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if data, err := os.ReadFile(addrFile); err == nil {
			d.base = "http://" + strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tusd never wrote %s", addrFile)
		}
	}
	// The address file is written after the listener is bound, so the
	// connection is accepted even if Serve has not been entered yet.
	resp, err := http.Get(d.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
	return d
}

// term SIGTERMs the daemon and returns its exit code and stderr.
func (d *tusd) term(t *testing.T) (code int, stderr string) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { d.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		t.Fatalf("tusd still running 30s after SIGTERM (stderr: %s)", d.stderr.String())
	}
	return d.cmd.ProcessState.ExitCode(), d.stderr.String()
}

// TestCleanDrain: an idle daemon answers SIGTERM with exit 0 and the
// "drained, bye" line. `make loadtest` asks the same exit 0 of a daemon
// after its load: tusload fails the run on any other exit.
func TestCleanDrain(t *testing.T) {
	code, stderr := startTusd(t).term(t)
	if code != 0 || !strings.Contains(stderr, "tusd: drained, bye") {
		t.Fatalf("idle SIGTERM: exit %d, stderr %q; want exit 0 and the drained line", code, stderr)
	}
}

// TestTimedOutDrainIsNotClean: when -drain-timeout expires with a job
// still building, the daemon must not claim it drained — non-zero exit,
// no "drained" line — or a supervisor reads an abandoned job as a clean
// shutdown.
func TestTimedOutDrainIsNotClean(t *testing.T) {
	d := startTusd(t, "-drain-timeout", "1ms", "-j", "1")
	// Fig. 8 serial is seconds of simulation; the POST returns as soon
	// as the job is registered.
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"figure","fig":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d, want 202", resp.StatusCode)
	}
	code, stderr := d.term(t)
	if code == 0 || strings.Contains(stderr, "drained") || !strings.Contains(stderr, "jobs still running") {
		t.Fatalf("timed-out drain: exit %d, stderr %q; want non-zero, \"jobs still running\" and no \"drained\"", code, stderr)
	}
}
