// Command tusload drives deterministic load against a tusd daemon and
// enforces the serving-layer invariants while doing it: figure
// byte-identity against the canonical CLI output, warm-phase cells_run
// frozen at zero, the Runner's exactly-once cell accounting, and
// /metrics counter monotonicity. It is also a crash-recovery soak
// harness (-soak).
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
// Exit status is nonzero when any invariant was violated.
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

func main() {
	base := flag.String("base", "", "base URL of a running tusd (alternative to -tusd)")
	tusdBin := flag.String("tusd", "", "path to a tusd binary to spawn on 127.0.0.1:0")
	cacheDir := flag.String("cache", "", "cache dir for the spawned daemon (default: fresh temp dir; -soak reuses it across the restart)")

	quick := flag.Bool("quick", false, "use small traces (must match the daemon)")
	ops := flag.Int("ops", 0, "override trace length per thread (must match the daemon)")
	pops := flag.Int("parallel-ops", 0, "override per-thread trace length for 16-thread runs (must match the daemon)")
	seed := flag.Int64("seed", 1, "workload seed (must match the daemon)")

	figsFlag := flag.String("figs", "9", "comma-separated figures to drive")
	conc := flag.Int("c", 8, "closed-loop worker count")
	rate := flag.Float64("rate", 0, "open-loop launch rate per second (0 = closed loop)")
	requests := flag.Int("requests", 64, "mixed-phase operation budget")
	duration := flag.Duration("duration", 0, "additional wall-clock bound on the mixed phase (0 = none)")
	loadSeed := flag.Uint64("load-seed", 1, "seed for the load generator's decision streams")
	metricsEvery := flag.Duration("metrics-every", 250*time.Millisecond, "cadence of the /metrics monotonicity scrapes")
	reportPath := flag.String("report", "", "write the latency/violation report JSON here")

	smoke := flag.Bool("smoke", false, "CI preset: tiny scale (ops 2500/300), figure 9, 48 ops at concurrency 8")
	soak := flag.Bool("soak", false, "kill/restart soak: SIGKILL the daemon mid-load, restart on the same cache, verify byte-identical warm responses (requires -tusd)")
	flag.Parse()

	if *smoke {
		if *ops == 0 {
			*ops = 2500
		}
		if *pops == 0 {
			*pops = 300
		}
		*figsFlag, *requests, *conc = "9", 48, 8
		*metricsEvery = 20 * time.Millisecond
	}

	figs, err := parseFigs(*figsFlag)
	if err != nil {
		fail(err)
	}

	if (*base == "") == (*tusdBin == "") {
		fail(fmt.Errorf("exactly one of -base or -tusd is required"))
	}
	if *soak && *tusdBin == "" {
		fail(fmt.Errorf("-soak needs to own the daemon lifecycle: use -tusd, not -base"))
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
		fail(err)
	}

	var d *daemon
	baseURL := *base
	if *tusdBin != "" {
		cache := *cacheDir
		if cache == "" {
			dir, err := os.MkdirTemp("", "tusload-cache-")
			if err != nil {
				fail(err)
			}
			defer os.RemoveAll(dir)
			cache = dir
		}
		d, err = startDaemon(*tusdBin, cache, scaleArgs(*quick, *ops, *pops, *seed))
		if err != nil {
			fail(err)
		}
		defer d.stop()
		baseURL = "http://" + d.addr
	}

	l, err := loadgen.New(loadgen.Options{
		BaseURL:      baseURL,
		Seed:         *loadSeed,
		Concurrency:  *conc,
		Rate:         *rate,
		Requests:     *requests,
		Duration:     *duration,
		Figs:         figs,
		References:   refs,
		MetricsEvery: *metricsEvery,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fail(err)
	}

	ctx := context.Background()
	if *soak {
		err = runSoak(ctx, l, d)
	} else {
		err = l.Run(ctx)
	}

	rep := l.Report()
	rep.WriteSummary(os.Stderr)
	if *reportPath != "" {
		if werr := rep.WriteFile(*reportPath); werr != nil {
			fail(werr)
		}
		fmt.Fprintf(os.Stderr, "tusload: report written to %s\n", *reportPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tusload:", err)
		if d != nil {
			d.stop()
		}
		os.Exit(1)
	}
	if len(rep.Violations) > 0 {
		if d != nil {
			d.stop()
		}
		os.Exit(1)
	}
}

// runSoak is the crash-recovery scenario: prove that a SIGKILL mid-load
// produces client errors (never hangs), and that a restart on the same
// cache directory serves every figure byte-identically without
// simulating a single cell.
func runSoak(ctx context.Context, l *loadgen.Loader, d *daemon) error {
	fmt.Fprintln(os.Stderr, "tusload: soak: cold sweep")
	if err := l.ColdSweep(ctx); err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "tusload: soak: mixed load, SIGKILL incoming")
	done := make(chan error, 1)
	go func() { done <- l.RunMixed(ctx) }()

	// Let the mixed phase get airborne, then yank the daemon. Transport
	// errors are expected from here until the restart — tolerated, but
	// every in-flight request must ERROR within the client timeout;
	// RunMixed not returning is the hang we are hunting.
	time.Sleep(500 * time.Millisecond)
	l.SetTolerant(true)
	fmt.Fprintln(os.Stderr, "tusload: soak: SIGKILL", d.cmd.Process.Pid)
	d.kill()

	select {
	case <-done:
		// Violations during the kill window were suppressed by tolerant
		// mode; transport errors are the expected outcome.
	case <-time.After(3 * time.Minute):
		return fmt.Errorf("soak: mixed phase still running 3m after SIGKILL — in-flight requests hung instead of erroring")
	}

	fmt.Fprintln(os.Stderr, "tusload: soak: restarting daemon on the same cache")
	nd, err := startDaemon(d.bin, d.cache, d.extra)
	if err != nil {
		return fmt.Errorf("soak: restart: %w", err)
	}
	*d = *nd // adopt: the deferred stop in main now manages the new process
	l.SetBase("http://" + d.addr)
	l.ResetMetricsBaseline() // fresh process: counters legitimately reset
	l.SetTolerant(false)

	fmt.Fprintln(os.Stderr, "tusload: soak: warm sweep off the disk cache")
	if err := l.WarmSweep(ctx); err != nil {
		return err
	}
	// The restarted daemon must have simulated nothing: every response
	// came off the shared disk cache.
	return l.CheckAllCached(ctx, "after restart")
}

// daemon is a spawned tusd process plus everything needed to respawn it
// identically (the soak restart).
type daemon struct {
	bin   string
	cache string
	extra []string
	addr  string
	cmd   *exec.Cmd
}

func scaleArgs(quick bool, ops, pops int, seed int64) []string {
	args := []string{"-seed", strconv.FormatInt(seed, 10), "-max-jobs", "4"}
	if quick {
		args = append(args, "-quick")
	}
	if ops > 0 {
		args = append(args, "-ops", strconv.Itoa(ops))
	}
	if pops > 0 {
		args = append(args, "-parallel-ops", strconv.Itoa(pops))
	}
	return args
}

// startDaemon launches tusd on 127.0.0.1:0 and resolves the real port
// through -addr-file, then waits for /healthz.
func startDaemon(bin, cache string, extra []string) (*daemon, error) {
	dir, err := os.MkdirTemp("", "tusload-addr-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "addr")

	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-cache", cache}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	d := &daemon{bin: bin, cache: cache, extra: extra, cmd: cmd}

	var addr string
	for deadline := time.Now().Add(15 * time.Second); ; {
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon never wrote %s", addrFile)
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.addr = addr

	cl := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(15 * time.Second); ; {
		resp, err := cl.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("daemon at %s never became healthy", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "tusload: daemon up at %s (cache=%s)\n", addr, cache)
	return d, nil
}

// kill SIGKILLs the daemon — the crash the soak injects.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.cmd = nil
}

// stop drains the daemon gracefully, falling back to SIGKILL.
func (d *daemon) stop() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	d.cmd = nil
}

func parseFigs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
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

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tusload:", err)
	os.Exit(1)
}
