#!/usr/bin/env bash
# resume_smoke.sh — kill-and-resume smoke test for the tusbench journal.
#
# Starts a journaled Fig. 9 run, SIGKILLs it once its result cache holds
# 8 finished cells, resumes it with `tusbench -resume` (the run ID is the
# name of its .json state file), and requires the resumed output to be
# byte-identical to an uninterrupted run. Exercises the same recovery
# path as TestKillAndResumeByteIdentical but through the real binary
# and real process death. Fails too when the baseline or the resumed
# run reports a degraded figure or a journal that stopped recording on
# stderr: identical bytes from two equally degraded runs prove nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

go build -o "$dir/tusbench" ./cmd/tusbench

scale=(-quick -ops 20000 -parallel-ops 500 -fig 9 -j 4)
jdir="$dir/journal"

# Uninterrupted baseline against its own cache.
"$dir/tusbench" "${scale[@]}" -cache "$dir/cache-baseline" > "$dir/baseline.txt" 2> "$dir/baseline.err"

# Journaled run, to be killed mid-matrix.
"$dir/tusbench" "${scale[@]}" -cache "$dir/cache" \
    -journal -journal-dir "$jdir" > "$dir/killed.txt" 2> "$dir/killed.err" &
pid=$!

# Wait until the result cache, the record of finished cells, shows real
# progress, then SIGKILL — no chance to flush or tidy.
n=0
for _ in $(seq 1 1200); do
    n=$(find "$dir/cache" -name '*.json' 2>/dev/null | wc -l)
    [ "$n" -ge 8 ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.05
done
if kill -0 "$pid" 2>/dev/null; then
    kill -9 "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null || true
    echo "resume-smoke: SIGKILLed run mid-matrix with $n cached cells"
else
    wait "$pid" 2>/dev/null || true
    echo "resume-smoke: run finished before the kill; still validating resume replay"
fi

run_id=$(basename "$jdir"/*.json .json)

"$dir/tusbench" -resume "$run_id" -journal-dir "$jdir" > "$dir/resumed.txt" 2> "$dir/resumed.err"
sed 's/^/  resume: /' "$dir/resumed.err"

diff "$dir/baseline.txt" "$dir/resumed.txt"
for run in baseline resumed; do
    if grep -E 'degraded by quarantine|stopped recording' "$dir/$run.err"; then
        echo "resume-smoke: the $run run reported the failure above on stderr" >&2
        exit 1
    fi
done
echo "resume-smoke: resumed output is byte-identical to the uninterrupted run"
