// Command tusd serves the paper's evaluation over HTTP: figure,
// histogram, cell-matrix, and litmus-check jobs run on a bounded pool
// that reuses the harness (worker pool, supervision, quarantine) and a
// process-wide content-addressed result cache. Identical in-flight
// requests coalesce onto one job; per-cell progress streams over SSE.
//
// Usage:
//
//	tusd                         # listen on :8344, cache in .tuscache
//	tusd -addr 127.0.0.1:9000    # explicit listen address
//	tusd -addr-file F            # write the resolved host:port to F
//	tusd -quick                  # CI-sized traces
//	tusd -max-jobs 4             # up to 4 jobs building at once
//	tusd -job-timeout 10m        # per-job deadline
//	tusd -cache ""               # disable the shared disk cache
//
// API:
//
//	GET  /healthz                # "ok" (503 "draining" during shutdown)
//	GET  /metrics                # Prometheus text format
//	GET  /v1/figures             # servable inventory (same as tusbench -list)
//	GET  /v1/figures/{n}         # figure n, byte-identical to `tusbench -fig n`
//	POST /v1/jobs                # submit {"kind":"figure|cells|hist|litmus",...}
//	GET  /v1/jobs                # job registry
//	GET  /v1/jobs/{id}           # one job
//	GET  /v1/jobs/{id}/output    # finished job's output bytes
//	GET  /v1/jobs/{id}/events    # SSE progress stream
//	POST /v1/jobs/{id}/cancel    # request cancellation (DELETE works too)
//
// On SIGINT/SIGTERM the daemon drains gracefully: the listener closes
// first (so load balancers stop routing) and in-flight jobs run to
// completion bounded by -drain-timeout. A drain that hits the bound
// exits 1 with jobs still running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/server"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	addrFile := flag.String("addr-file", "", "write the resolved listen address (host:port) here once the listener is up — lets harnesses bind :0 and still find the port deterministically")
	quick := flag.Bool("quick", false, "use small traces (CI-sized)")
	ops := flag.Int("ops", 0, "override trace length per thread")
	pops := flag.Int("parallel-ops", 0, "override per-thread trace length for 16-thread runs")
	seed := flag.Int64("seed", 1, "workload seed")
	check := flag.Bool("check", false, "attach the TSO checker to every run")
	verbose := flag.Bool("v", false, "print each run on stderr")
	workers := flag.Int("j", 0, "max concurrent simulation cells per job (0 = all CPUs)")
	cacheDir := flag.String("cache", ".tuscache", "persistent result cache directory shared by all jobs (empty = off)")
	maxJobs := flag.Int("max-jobs", 2, "max concurrently building jobs (queued past this)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight jobs on shutdown")
	flag.Parse()

	r := harness.NewRunner()
	if *quick {
		r = harness.NewQuickRunner()
	}
	if *ops > 0 {
		r.Ops = *ops
	}
	if *pops > 0 {
		r.ParallelOps = *pops
	}
	r.Seed = *seed
	r.Check = *check
	r.Verbose = *verbose
	r.Workers = *workers
	if *cacheDir != "" {
		cache, err := harness.NewDiskCache(*cacheDir)
		if err != nil {
			fail(err)
		}
		r.Cache = cache
	}
	r.Supervisor = harness.NewSupervisor(config.Default().CellTimeout)

	srv := server.New(server.Options{
		Runner:     r,
		MaxJobs:    *maxJobs,
		JobTimeout: *jobTimeout,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	if *addrFile != "" {
		// Temp+rename so a poller never reads a torn address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fail(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "tusd: %s serving on http://%s (cache=%s max-jobs=%d)\n",
		harness.Version, ln.Addr(), cacheOrOff(*cacheDir), *maxJobs)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tusd: %v: draining (listener closing, in-flight jobs finishing)\n", s)
	case err := <-errCh:
		fail(err)
	}

	// Drain: refuse new work, close the listener first so health checks
	// and routing fail fast, then wait for in-flight jobs.
	srv.StartDrain()
	shutCtx, shutCancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "tusd: listener shutdown: %v\n", err)
	}
	drainErr := srv.WaitIdle(shutCtx)
	if deg := r.DegradedCells(); len(deg) > 0 {
		fmt.Fprintf(os.Stderr, "tusd: %d cells were degraded by quarantine this run:\n", len(deg))
		for _, d := range deg {
			fmt.Fprintf(os.Stderr, "  %s: %s: %s\n", d.Figure, d.Cell, d.Reason)
		}
	}
	if drainErr != nil {
		fail(fmt.Errorf("%w (exiting with jobs still running)", drainErr))
	}
	fmt.Fprintln(os.Stderr, "tusd: drained, bye")
}

func cacheOrOff(dir string) string {
	if dir == "" {
		return "off"
	}
	return dir
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tusd:", err)
	os.Exit(1)
}
