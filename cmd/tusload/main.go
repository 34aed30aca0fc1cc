// Command tusload checks a tusd daemon's serving-layer invariants while
// driving deterministic mixed load at it: figure byte-identity against
// the canonical CLI output, warm-phase cells_run frozen at zero, the
// Runner's exactly-once cell accounting, /metrics counter monotonicity,
// and the SSE, cancel and storm contracts (package loadgen lists them).
// It is also a crash-recovery soak harness (-soak). It does not time
// the daemon; the benchmark's serve_mix workload does.
//
// Usage:
//
//	tusload -base http://127.0.0.1:8344     # load an already-running tusd
//	tusload -tusd bin/tusd -smoke           # spawn a daemon, tiny CI preset
//	tusload -tusd bin/tusd -soak            # SIGKILL mid-load, restart, verify
//
// The scale flags (-quick/-ops/-parallel-ops/-seed) must match the
// daemon exactly: they configure both the spawned daemon and the
// in-process reference runner that renders the byte-identity oracle.
// Exit status is nonzero when any invariant was violated, or when a
// spawned daemon does not exit 0 on the final SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tusim/internal/harness"
	"tusim/internal/loadgen"
)

// main has one exit: run's deferred cleanup (stop the spawned daemon,
// remove the temp cache) has happened by the time the status is used.
func main() { os.Exit(run()) }

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "tusload:", err)
	return 1
}

func run() (code int) {
	base := flag.String("base", "", "base URL of a running tusd (alternative to -tusd)")
	tusdBin := flag.String("tusd", "", "path to a tusd binary to spawn on 127.0.0.1:0")
	cacheDir := flag.String("cache", "", "cache dir for the spawned daemon (default: fresh temp dir; -soak reuses it across the restart)")

	quick := flag.Bool("quick", false, "use small traces (must match the daemon)")
	ops := flag.Int("ops", 0, "override trace length per thread (must match the daemon)")
	pops := flag.Int("parallel-ops", 0, "override per-thread trace length for 16-thread runs (must match the daemon)")
	seed := flag.Int64("seed", 1, "workload seed (must match the daemon)")

	figsFlag := flag.String("figs", "9", "comma-separated figures to drive (must include 9: the cells, hist and cancel ops draw from its matrix)")
	conc := flag.Int("c", 8, "closed-loop worker count")
	requests := flag.Int("requests", 64, "mixed-phase operation budget")
	duration := flag.Duration("duration", 0, "additional wall-clock bound on the mixed phase (0 = none)")
	loadSeed := flag.Uint64("load-seed", 1, "seed for the load generator's decision streams")

	smoke := flag.Bool("smoke", false, "CI preset: tiny scale (ops 2500/300), figure 9, 48 ops at concurrency 8; a flag given explicitly wins")
	soak := flag.Bool("soak", false, "kill/restart soak: SIGKILL the daemon mid-load, restart on the same cache, verify byte-identical warm responses (requires -tusd)")
	flag.Parse()

	if *smoke {
		// -figs and -c already default to the preset's values.
		preset := map[string]string{"ops": "2500", "parallel-ops": "300", "requests": "48"}
		flag.Visit(func(f *flag.Flag) { delete(preset, f.Name) })
		for name, v := range preset {
			flag.Set(name, v)
		}
	}

	// Everything the command line can get wrong is refused here, before
	// any reference is rendered or daemon spawned.
	figs, err := parseFigs(*figsFlag)
	if err == nil {
		err = loadgen.CheckFigs(figs)
	}
	switch {
	case err != nil:
	case (*base == "") == (*tusdBin == ""):
		err = fmt.Errorf("exactly one of -base or -tusd is required")
	case *soak && *tusdBin == "":
		err = fmt.Errorf("-soak needs to own the daemon lifecycle: use -tusd, not -base")
	}
	if err != nil {
		return fail(err)
	}

	// The reference runner renders the byte-identity oracle at the
	// daemon's exact scale, cache-less so the daemon's own writes cannot
	// contaminate it.
	ref := harness.NewRunner()
	if *quick {
		ref = harness.NewQuickRunner()
	}
	if *ops > 0 {
		ref.Ops = *ops
	}
	if *pops > 0 {
		ref.ParallelOps = *pops
	}
	ref.Seed = *seed
	fmt.Fprintf(os.Stderr, "tusload: rendering reference figures %v (ops=%d parallel-ops=%d seed=%d)\n",
		figs, ref.Ops, ref.ParallelOps, ref.Seed)
	refs, err := loadgen.RenderReferences(ref, figs)
	if err != nil {
		return fail(err)
	}

	var d *daemon
	baseURL := *base
	if *tusdBin != "" {
		cache := *cacheDir
		if cache == "" {
			if cache, err = os.MkdirTemp("", "tusload-cache-"); err != nil {
				return fail(err)
			}
			defer os.RemoveAll(cache)
		}
		// The daemon is told the reference runner's resolved scale, so
		// the two cannot disagree.
		d = &daemon{bin: *tusdBin, args: []string{"-cache", cache, "-max-jobs", "4", "-seed", fmt.Sprint(ref.Seed),
			"-ops", fmt.Sprint(ref.Ops), "-parallel-ops", fmt.Sprint(ref.ParallelOps)}}
		if err = d.start(); err != nil {
			return fail(err)
		}
		defer func() {
			if err := d.end(syscall.SIGTERM); err != nil {
				code = fail(err)
			}
		}()
		baseURL = "http://" + d.addr
	}

	l, err := loadgen.New(loadgen.Options{
		BaseURL:     baseURL,
		Seed:        *loadSeed,
		Concurrency: *conc,
		Requests:    *requests,
		Duration:    *duration,
		Figs:        figs,
		References:  refs,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return fail(err)
	}

	ctx := context.Background()
	if *soak {
		err = runSoak(ctx, l, d, *requests)
	} else {
		err = l.Run(ctx)
	}
	rep := l.Report()
	rep.WriteSummary(os.Stderr)
	if err != nil {
		return fail(err)
	}
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

// runSoak is the crash-recovery scenario: prove that a SIGKILL mid-load
// produces client errors (never hangs), and that a restart on the same
// cache directory serves every figure byte-identically without
// simulating a single cell.
func runSoak(ctx context.Context, l *loadgen.Loader, d *daemon, requests int) error {
	fmt.Fprintln(os.Stderr, "tusload: soak: cold sweep")
	if err := l.ColdSweep(ctx); err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "tusload: soak: mixed load, SIGKILL incoming")
	sent, _ := recorded(l)
	done := make(chan error, 1)
	go func() { done <- l.RunMixed(ctx) }()

	// Let a quarter of the mixed phase's budget finish, then yank the
	// daemon under the rest. Transport errors are expected from here
	// until the restart — tolerated, but every in-flight request must
	// ERROR within the client timeout; RunMixed not returning is the
	// hang we are hunting.
	for n, _ := recorded(l); n-sent < int64(requests/4); n, _ = recorded(l) {
		select {
		case <-done:
			return fmt.Errorf("soak: mixed phase ended after %d of %d requests, before the SIGKILL", n-sent, requests)
		case <-time.After(5 * time.Millisecond):
		}
	}
	_, failed := recorded(l)
	l.BeginKillWindow()
	fmt.Fprintln(os.Stderr, "tusload: soak: SIGKILL", d.cmd.Process.Pid)
	d.end(syscall.SIGKILL)

	select {
	case <-done:
		// Violations during the kill window were suppressed by tolerant
		// mode; transport errors are the expected outcome.
	case <-time.After(3 * time.Minute):
		return fmt.Errorf("soak: mixed phase still running 3m after SIGKILL — in-flight requests hung instead of erroring")
	}
	if _, n := recorded(l); n == failed {
		return fmt.Errorf("soak: SIGKILL hit no in-flight request: the kill window recorded no tolerated error")
	}

	fmt.Fprintln(os.Stderr, "tusload: soak: restarting daemon on the same cache")
	if err := d.start(); err != nil {
		return fmt.Errorf("soak: restart: %w", err)
	}
	l.EndKillWindow("http://" + d.addr)

	fmt.Fprintln(os.Stderr, "tusload: soak: warm sweep off the disk cache")
	if err := l.WarmSweep(ctx); err != nil {
		return err
	}
	// The restarted daemon must have simulated nothing: every response
	// came off the shared disk cache.
	return l.CheckAllCached(ctx, "after restart")
}

// recorded sums the requests and errors l has recorded over every op
// but the metrics scrapes.
func recorded(l *loadgen.Loader) (requests, failed int64) {
	for _, c := range l.Report().Ops {
		if c.Name != "metrics" {
			requests += c.Requests
			failed += c.Errors
		}
	}
	return requests, failed
}

// daemon is a spawned tusd process plus what respawns it identically
// (the soak restart).
type daemon struct {
	bin  string
	args []string
	addr string
	cmd  *exec.Cmd // nil while no process is running
}

// start launches tusd on 127.0.0.1:0, resolves the real port through
// -addr-file, and waits for /healthz.
func (d *daemon) start() error {
	dir, err := os.MkdirTemp("", "tusload-addr-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "addr")

	cmd := exec.Command(d.bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, d.args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn %s: %w", d.bin, err)
	}
	d.cmd = cmd

	cl := &http.Client{Timeout: time.Second}
	for _, step := range []struct {
		failed string
		try    func() bool
	}{
		{"wrote " + addrFile, func() bool {
			data, err := os.ReadFile(addrFile)
			d.addr = strings.TrimSpace(string(data))
			return err == nil
		}},
		{"became healthy", func() bool {
			resp, err := cl.Get("http://" + d.addr + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}},
	} {
		for deadline := time.Now().Add(15 * time.Second); !step.try(); time.Sleep(20 * time.Millisecond) {
			if time.Now().After(deadline) {
				d.end(syscall.SIGKILL)
				return fmt.Errorf("daemon %s never %s", d.bin, step.failed)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "tusload: daemon up at %s (%s)\n", d.addr, strings.Join(d.args, " "))
	return nil
}

// end sends the running daemon sig — SIGKILL is the crash the soak
// injects, SIGTERM a graceful drain — and reaps it, falling back to
// SIGKILL when a drain outlasts 30 s. A drain that does not exit 0 is
// an error; a crash's exit status is not.
func (d *daemon) end(sig os.Signal) error {
	if d.cmd == nil {
		return nil
	}
	d.cmd.Process.Signal(sig)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	state := d.cmd.ProcessState
	d.cmd = nil
	if sig == syscall.SIGKILL || state.Success() {
		return nil
	}
	return fmt.Errorf("daemon %s did not drain on SIGTERM: %v", d.bin, state)
}

func parseFigs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad figure %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no figures in %q", s)
	}
	return out, nil
}
