#!/usr/bin/env bash
# server_smoke.sh — end-to-end smoke test for the tusd daemon.
#
# Builds the real binaries, starts tusd against a cold shared cache,
# polls /healthz, then proves the service contract through the network:
#
#   1. GET /v1/figures/9 (cold) is byte-identical to `tusbench -fig 9`;
#   2. the same GET warm, twice, is byte-identical again, reports
#      X-Tusd-Cells-Run: 0, and carries a new X-Tusd-Job each time (a
#      job born done from the cold job's bytes);
#   3. GET /v1/figures matches `tusbench -list`;
#   4. /metrics carries every required series;
#   5. a figure job canceled right after submission turns terminal,
#      frees the pool (tusd_jobs_inflight 0) and leaves no partial state
#      behind: Fig. 9 still diffs clean against the CLI;
#   6. SIGTERM drains gracefully (listener first) and exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
tusd_pid=""
cleanup() {
    [ -n "$tusd_pid" ] && kill -9 "$tusd_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/tusbench" ./cmd/tusbench
go build -o "$dir/tusd" ./cmd/tusd

scale=(-quick -ops 20000 -parallel-ops 500)

# CLI reference bytes, rendered with no cache so both sides are cold.
"$dir/tusbench" "${scale[@]}" -fig 9 > "$dir/cli_fig9.txt"
"$dir/tusbench" "${scale[@]}" -list > "$dir/cli_list.json"

"$dir/tusd" "${scale[@]}" -addr 127.0.0.1:0 -cache "$dir/cache" 2> "$dir/tusd.err" &
tusd_pid=$!

# The daemon prints its resolved address ("serving on http://...") once
# the listener is up; wait for it, then for /healthz.
base=""
for _ in $(seq 1 200); do
    base=$(sed -n 's/.*serving on \(http:\/\/[^ ]*\).*/\1/p' "$dir/tusd.err" | head -1)
    [ -n "$base" ] && break
    kill -0 "$tusd_pid" 2>/dev/null || { cat "$dir/tusd.err"; exit 1; }
    sleep 0.05
done
[ -n "$base" ] || { echo "server-smoke: tusd never announced its address"; cat "$dir/tusd.err"; exit 1; }
for _ in $(seq 1 200); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.05
done
curl -fsS "$base/healthz" | grep -qx ok
echo "server-smoke: tusd healthy at $base"

# Cold fetch: byte-identical to the CLI, every cell freshly simulated.
curl -fsS -D "$dir/cold.hdr" "$base/v1/figures/9" > "$dir/cold.txt"
diff "$dir/cli_fig9.txt" "$dir/cold.txt"
cold_run=$(tr -d '\r' < "$dir/cold.hdr" | awk -F': ' 'tolower($1)=="x-tusd-cells-run"{print $2}')
[ "$cold_run" -gt 0 ] || { echo "server-smoke: cold fetch ran $cold_run cells, expected > 0"; exit 1; }
echo "server-smoke: cold figure 9 byte-identical to CLI ($cold_run cells simulated)"

# Warm fetches: byte-identical again, zero cells simulated, and each a
# job of its own.
header() { tr -d '\r' < "$1" | awk -F': ' -v h="$2" 'tolower($1)==h{print $2}'; }
for n in 1 2; do
    curl -fsS -D "$dir/warm$n.hdr" "$base/v1/figures/9" > "$dir/warm$n.txt"
    diff "$dir/cli_fig9.txt" "$dir/warm$n.txt"
    warm_run=$(header "$dir/warm$n.hdr" x-tusd-cells-run)
    [ "$warm_run" = "0" ] || { echo "server-smoke: warm fetch $n reran $warm_run cells, expected 0"; exit 1; }
done
job1=$(header "$dir/warm1.hdr" x-tusd-job)
job2=$(header "$dir/warm2.hdr" x-tusd-job)
[ -n "$job1" ] && [ "$job1" != "$job2" ] \
    || { echo "server-smoke: warm fetches carried X-Tusd-Job '$job1' and '$job2', expected two jobs"; exit 1; }
echo "server-smoke: warm figure 9 byte-identical twice (jobs $job1, $job2), cells_run: 0"

# Inventory: one registry behind both the CLI flag and the endpoint.
curl -fsS "$base/v1/figures" > "$dir/srv_list.json"
diff "$dir/cli_list.json" "$dir/srv_list.json"
echo "server-smoke: /v1/figures matches tusbench -list"

# Metrics: every required series is present.
curl -fsS "$base/metrics" > "$dir/metrics.txt"
for series in \
    'tusd_info{harness_version=' \
    tusd_jobs_inflight \
    'tusd_jobs_completed_total{kind="figure",status="done"}' \
    tusd_coalesced_total \
    tusd_cells_run_total \
    tusd_cells_cached_total \
    tusd_cache_corrupt_total \
    tusd_cell_seconds_bucket \
    tusd_cell_seconds_count; do
    grep -qF "$series" "$dir/metrics.txt" \
        || { echo "server-smoke: /metrics missing $series"; cat "$dir/metrics.txt"; exit 1; }
done
echo "server-smoke: /metrics carries all required series"

# Cancel: submit Fig. 10 and DELETE it at once. The job must turn
# terminal (canceled — or done, if the machine beat the DELETE), the pool
# must empty, and the canceled job must leave nothing half-done behind.
job=$(curl -fsS -X POST "$base/v1/jobs" -d '{"kind":"figure","fig":10}' \
    | sed -n 's/^ *"id": "\([^"]*\)".*/\1/p')
[ -n "$job" ] || { echo "server-smoke: figure 10 submit returned no job id"; exit 1; }
curl -fsS -X DELETE "$base/v1/jobs/$job" >/dev/null
state=""
for _ in $(seq 1 600); do
    state=$(curl -fsS "$base/v1/jobs/$job" | sed -n 's/^ *"state": "\([^"]*\)".*/\1/p')
    case "$state" in
        canceled|done) break ;;
        queued|running) sleep 0.05 ;;
        *) echo "server-smoke: canceled job $job ended '$state'"; exit 1 ;;
    esac
done
case "$state" in
    canceled|done) ;;
    *) echo "server-smoke: job $job still '$state' 30 s after DELETE"; exit 1 ;;
esac
curl -fsS "$base/metrics" | grep -qx 'tusd_jobs_inflight 0' \
    || { echo "server-smoke: jobs still in flight after cancel"; curl -fsS "$base/metrics" | grep tusd_jobs; exit 1; }
curl -fsS "$base/v1/figures/9" > "$dir/after_cancel.txt"
diff "$dir/cli_fig9.txt" "$dir/after_cancel.txt"
echo "server-smoke: figure 10 job $job $state after DELETE, pool empty, figure 9 still byte-identical"

# Graceful drain: SIGTERM closes the listener first and exits cleanly.
kill -TERM "$tusd_pid"
wait "$tusd_pid"
tusd_pid=""
grep -q "drained, bye" "$dir/tusd.err"
echo "server-smoke: drained cleanly"
