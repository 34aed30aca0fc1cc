package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests re-execute this test binary as tusload itself (the pattern
// of cmd/tusbench, cmd/tusim and cmd/tuscheck): with TUSLOAD_TEST_MAIN
// set, TestMain hands the process to main(), so exit codes and stderr
// are the real binary's. Spawned by that tusload as its -tusd (so with
// tusd's -addr first), the binary plays a daemon instead.
func TestMain(m *testing.M) {
	if os.Getenv("TUSLOAD_TEST_MAIN") != "" {
		if len(os.Args) > 1 && os.Args[1] == "-addr" {
			brokenTusd()
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tusload runs the test binary as tusload and returns its exit code and
// output.
func tusload(t *testing.T, env []string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "TUSLOAD_TEST_MAIN=1"), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	// A daemon left behind holds the stderr pipe open; do not wait on it
	// forever, the test wants to report it.
	cmd.WaitDelay = 5 * time.Second
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) && !errors.Is(err, exec.ErrWaitDelay) {
		t.Fatalf("tusload %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// TestRefusedCommandLines: every malformed invocation is refused before
// any figure is rendered or daemon spawned, with the rule on stderr.
func TestRefusedCommandLines(t *testing.T) {
	const fig9Rule = "lack figure 9"
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
		{"figure list without 9", []string{"-tusd", "/nonexistent", "-ops", "2500", "-parallel-ops", "300", "-figs", "10"}, 1, fig9Rule},
		{"explicit -figs wins over -smoke", []string{"-tusd", "/nonexistent", "-smoke", "-figs", "10"}, 1, fig9Rule},
		{"removed -gate flag", []string{"-gate"}, 2, "flag provided but not defined: -gate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := tusload(t, nil, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if stdout != "" || !strings.Contains(stderr, tc.stderr) {
				t.Fatalf("stdout %q, stderr %q; want empty stdout and %q on stderr", stdout, stderr, tc.stderr)
			}
			if strings.Contains(stderr, "tusload: rendering") || strings.Contains(stderr, "tusload: spawn") {
				t.Fatalf("tusload went to work before refusing: %s", stderr)
			}
		})
	}
}

// brokenTusd is the daemon the test binary plays: it comes up the way
// tusload expects (-addr-file written, /healthz 200), records its pid,
// and fails every other request.
func brokenTusd() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	os.WriteFile(os.Getenv("TUSLOAD_TEST_PIDFILE"), []byte(strconv.Itoa(os.Getpid())), 0o644)
	for i, a := range os.Args {
		if a == "-addr-file" {
			os.WriteFile(os.Args[i+1], []byte(ln.Addr().String()+"\n"), 0o644)
		}
	}
	panic(http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.Error(w, "broken on purpose", http.StatusInternalServerError)
		}
	})))
}

// TestFailureAfterSpawnCleansUp: when the run fails with a daemon
// already spawned, tusload still exits through its cleanup — the child
// is gone and neither temp dir (cache, addr file) is left behind.
func TestFailureAfterSpawnCleansUp(t *testing.T) {
	tmp := t.TempDir()
	pidFile := t.TempDir() + "/pid"
	code, _, stderr := tusload(t, []string{"TMPDIR=" + tmp, "TUSLOAD_TEST_PIDFILE=" + pidFile},
		"-tusd", os.Args[0], "-smoke")
	if code != 1 || !strings.Contains(stderr, "status 500: broken on purpose") {
		t.Fatalf("exit code %d, want 1 with the daemon's failure on stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatalf("the daemon was never spawned: %v\n%s", err, stderr)
	}
	pid, _ := strconv.Atoi(string(data))
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		syscall.Kill(pid, syscall.SIGKILL)
		t.Errorf("spawned daemon (pid %d) outlived tusload: kill -0 says %v", pid, err)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("tusload left %d entries in its temp dir, first %s", len(left), left[0].Name())
	}
}

// TestFlagsMatchExperimentsDoc: the flags `tusload -h` prints are
// exactly the -flag tokens of EXPERIMENTS.md's tusload section, so a
// removed flag cannot survive in prose and a new one cannot go
// undocumented.
func TestFlagsMatchExperimentsDoc(t *testing.T) {
	code, _, usage := tusload(t, nil, "-h")
	if code != 0 {
		t.Fatalf("tusload -h exited %d:\n%s", code, usage)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Load-testing tusd (tusload)\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no \"Load-testing tusd (tusload)\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	tokens := func(re, text string) []string {
		set := map[string]bool{}
		for _, m := range regexp.MustCompile(re).FindAllStringSubmatch(text, -1) {
			set[m[1]] = true
		}
		var out []string
		for f := range set {
			out = append(out, f)
		}
		sort.Strings(out)
		return out
	}
	// The test binary's own -test.* flags are not tusload's.
	defined := tokens(`(?m)^\s+-([a-z][a-z-]*)(?:\s|$)`, usage)
	documented := tokens("(?m)(?:^|[\\s`(])-([a-z][a-z-]*)", section)
	if fmt.Sprint(defined) != fmt.Sprint(documented) {
		t.Fatalf("tusload -h defines %v\nEXPERIMENTS.md's tusload section names %v", defined, documented)
	}
}
