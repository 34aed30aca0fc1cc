GO ?= go

.PHONY: all build vet test short race race-harness check smoke chaos litmus figs figures-par fuzz cover bench pgo ref-identity trace-smoke resume-smoke serve server-smoke loadtest soak clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# short: quick signal; the chaos fuzz matrix and bench soak skip
# themselves under -short.
short:
	$(GO) test -short ./...

# race: the protocol-heavy packages under the race detector (in
# internal/system, the quiescence-skip identity tests: every litmus
# program explored on the fast and the reference machine, and the
# skip-share pin), and the explorer's concurrent schedule runs (each
# level of a cell's schedule tree fans out to the pool).
race:
	$(GO) test -short -race ./internal/system/ ./internal/litmus/
	$(GO) test -short -race -run 'AnyWorkerCount|TranscriptPinned|Doctored' ./internal/modelcheck/

# race-harness: the parallel experiment harness (worker pool, result
# cache, stats merging, supervision layer) and the tusd service layer
# (job pool, coalescing, SSE fan-out) under the race detector,
# including the serial-vs-parallel byte-identity tests; the cell stop
# paths (hang guard, cancel, a shared cell's slot), jobs born done, the
# drain admission race and eviction past a running job repeat five
# times.
# The zero-alloc pins (SB enqueue->commit->drain, L1-hit load/store, L1
# load miss, directory probe, CSB group flush, WCB coalesce, event
# queue) and the litmus machine's build count run alongside in their
# packages — allocation regressions on the hot paths fail here, not in a
# profiler three PRs later.
race-harness:
	$(GO) test -race ./internal/harness/... ./internal/stats/... ./internal/supervise/... ./internal/server/...
	$(GO) test -race -count=5 -run 'DeadlineMiss|SharedCell|CancelStopsRunningCell|CancelWhileSharing|BornDone|Drain|EvictionSkips' ./internal/harness/ ./internal/server/
	$(GO) test -run 'ZeroAlloc|MachineAllocs' -count=1 ./internal/cpu/ ./internal/memsys/ ./internal/mech/ ./internal/wcb/ ./internal/event/ ./internal/lmap/ ./internal/harness/ ./internal/system/

# check: model-check the simulator against the operational x86-TSO
# oracle — every litmus program × {base, CSB, TUS}, bounded-exhaustive
# schedule exploration. On a violation it writes mc-crash.json; replay
# with
#   $(GO) run ./cmd/tusim -repro mc-crash.json
check: build
	$(GO) run ./cmd/tuscheck

# smoke: the same matrix under small CI budgets.
smoke: build
	$(GO) run ./cmd/tuscheck -smoke

# chaos: the seeded chaos-fuzz sweep (litmus fault matrix + bench
# soak). On failure it writes tus-crash.json; replay it with
#   $(GO) run ./cmd/tusim -repro tus-crash.json
CHAOS_SEED ?= 7
chaos:
	$(GO) run ./cmd/tusim -chaos-seed $(CHAOS_SEED)

# litmus: the litmus suite under TUS against the x86-TSO oracle.
litmus:
	$(GO) run ./cmd/tuscheck -mech TUS

figs:
	$(GO) run ./cmd/tusbench -quick

# figures-par: regenerate all figures with the parallel harness (one
# worker per CPU) and a persistent result cache. Re-running is nearly
# free: every unchanged cell loads from .tuscache by content hash.
figures-par:
	$(GO) run ./cmd/tusbench -quick -j 0 -cache .tuscache

# fuzz: the native fuzz targets on a short budget (the committed seed
# corpora under testdata/fuzz replay as plain tests in `make test`).
# FuzzOracleVsChecker drives random small TSO programs through the
# operational oracle and replays every allowed interleaving through the
# online checker; FuzzWorkloadTrace shakes the workload generators;
# FuzzStoreRing drives the indexed store ring and its entry-by-entry
# reference twin with one operation stream.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/tso/ -run '^$$' -fuzz FuzzOracleVsChecker -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload/ -run '^$$' -fuzz FuzzWorkloadTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cpu/ -run '^$$' -fuzz FuzzStoreRing -fuzztime $(FUZZTIME)

# cover: enforce the coverage floor over the layers that carry the
# repo's behavioural contracts — the tracer and histogram code (golden/
# identity guarantees), the tusd service layer (coalescing, SSE,
# exactly-once accounting), the supervision/journal layer (crash
# consistency), the simulator hot core (event queue, CPU core, memory
# system, line-map containers) whose pooled fast paths the differential
# rig and these tests keep honest, and the workload generators +
# prefetchers whose fingerprints the figures depend on.
cover:
	$(GO) test -coverprofile=cover.out ./internal/trace/ ./internal/stats/ ./internal/server/ ./internal/supervise/ ./internal/event/ ./internal/cpu/ ./internal/memsys/ ./internal/lmap/ ./internal/workload/ ./internal/prefetch/
	$(GO) tool cover -func=cover.out | awk '/^total:/ { sub("%","",$$3); if ($$3+0 < 85) { printf "coverage %.1f%% below 85%% floor\n", $$3; exit 1 } else printf "coverage %.1f%% (floor 85%%)\n", $$3 }'

# trace-smoke: the acceptance path — a smoke workload emitting a
# Perfetto-loadable Chrome trace JSON with the full store lifecycle.
trace-smoke:
	$(GO) run ./cmd/tusim -bench 502.gcc5 -mech TUS -ops 20000 -trace -trace-out trace.json

# resume-smoke: SIGKILL a journaled figure run mid-matrix, resume it
# from its .tusjournal state file (settings, quarantines) + result cache
# (finished cells), and require the resumed output to be byte-identical
# to an uninterrupted run.
resume-smoke:
	bash scripts/resume_smoke.sh

# serve: run the tusd evaluation daemon on :8344 with the shared
# content-addressed cache. Figures come out byte-identical to tusbench:
#   curl localhost:8344/v1/figures/9
serve:
	$(GO) run ./cmd/tusd -quick -cache .tuscache

# server-smoke: the tusd acceptance path through real binaries — cold
# and warm GET /v1/figures/9 diffed byte-for-byte against the CLI,
# /v1/figures vs -list, required /metrics series, a canceled job, and
# a graceful SIGTERM drain.
server-smoke:
	bash scripts/server_smoke.sh

# loadtest: spawn a real tusd binary and check its invariants under the
# deterministic mixed load — byte-identity, warm-phase cells_run 0,
# exactly-once cell accounting, /metrics monotonicity, the SSE, cancel
# and storm contracts. It asserts; timing is `bash benchmark/run.sh`.
loadtest:
	$(GO) build -o bin/tusd ./cmd/tusd
	$(GO) run ./cmd/tusload -tusd bin/tusd -smoke

# soak: SIGKILL the daemon mid-load and prove the serving layer
# survives: in-flight requests error (never hang), a restart on the
# same cache dir serves every figure byte-identically, and the fresh
# process simulates zero cells.
soak:
	$(GO) build -o bin/tusd ./cmd/tusd
	$(GO) run ./cmd/tusload -tusd bin/tusd -soak -ops 2500 -parallel-ops 300 -requests 600 -duration 15s

# bench: the tiered microbenchmark suite, cheapest first — container
# ops (lmap), event queue, SB drain, WCB coalesce, L1 hit/miss +
# directory probe, a memoized tusd figure request, then whole-cell
# simulation throughput. A developer
# tool with no committed baseline: the numbers are this machine's, so
# compare two runs of your own. "Is it slower" is answered by
# `bash benchmark/run.sh` (see DESIGN.md, "Perf record").
bench:
	$(GO) test -run '^$$' -bench . -benchtime 0.5s ./internal/lmap/ ./internal/event/ ./internal/cpu/ ./internal/wcb/ ./internal/memsys/ ./internal/server/
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorThroughput|BenchmarkWholeCellCyclesPerSec' -benchtime 2s .

# pgo: regenerate the committed profile-guided-optimization profile.
# Runs the representative workload — a serial cache-less -quick figure
# sweep, the cell mix of the benchmark's fig_matrix workload — under
# the CPU profiler and installs the result as cmd/tusbench/default.pgo,
# which the Go toolchain applies automatically to every `go build`/
# `go run` of ./cmd/tusbench. The profile is an input to the build, not
# an output: regenerate deliberately, check the throughput delta with
# `bash benchmark/run.sh` (it builds with this profile), and commit the
# refreshed file. The CI pgo job proves the optimized build stays
# byte-identical on every figure.
pgo:
	$(GO) run ./cmd/tusbench -quick -j 1 -cpuprofile tusbench.pgo.tmp > /dev/null
	mv tusbench.pgo.tmp cmd/tusbench/default.pgo

# ref-identity: the mechanical observational-equivalence proof for the
# open-addressed/pooled containers AND the time-wheel scheduler — the
# entire test suite (golden figures, chaos, model check included)
# replayed with config.Reference defaulted on (reference containers,
# the binary heap alone) via the tus_ref build tag, plus the in-process
# differential rigs that run a fast and a reference machine side by
# side (state identity at every drain point under seeded + chaos
# traffic, whole-system cycle/stat identity, event-level pop order,
# and the drain lookahead's watermark stepped against the full walk).
ref-identity:
	$(GO) test -tags tus_ref ./...
	$(GO) test -run 'TestDifferential|TestReference|TestWheel|TestLookahead' -count=1 ./internal/memsys/ ./internal/system/ ./internal/event/ ./internal/mech/

# clean: drop run-local state — the content-addressed result cache,
# stale run journals, the benchmark's build directory, and scratch
# artifacts. Never touches committed records (golden files,
# benchmark/expected.json, cmd/tusbench/default.pgo).
clean:
	rm -rf .tuscache .tusjournal .bench_build bin
	rm -f cover.out trace.json tus-crash.json mc-crash.json *.prof
