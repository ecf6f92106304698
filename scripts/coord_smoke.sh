#!/bin/sh
# End-to-end crash-tolerance smoke for the distributed campaign
# coordinator: run a sharded campaign across two worker processes,
# SIGKILL one of them mid-campaign, and assert that the merged record
# stream still hashes identically to the single-process golden run —
# the byte-determinism contract of internal/coord, exercised over real
# processes and real sockets rather than in-process test servers.
#
# Usage: scripts/coord_smoke.sh [path-to-repro-binary]
#
# The kill races the campaign, so a fast machine can finish before the
# worker dies (the run is then healthy and proves nothing about
# recovery); the script retries a few times until the coordinator
# reports at least one shard reassignment. A hash mismatch at any
# point is an immediate failure.
#
# First, a dense spec runs through two healthy workers: the
# full-density constellation at a 15° mask makes records of about
# 14 KB, so a shard's queue holds far more than one dishrpc frame
# (1 MiB) of them. Every fetch must stay within the frame, so the run
# must restart no shard and hash like its single-process golden.
set -eu

repro=${1:-./repro}
scale=${SCALE:-small}
seed=${SEED:-41}
slots=${SLOTS:-40}
delay=${RECORD_DELAY:-5ms}

work=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

if [ ! -x "$repro" ]; then
    echo "coord_smoke: building repro..." >&2
    go build -o "$work/repro" ./cmd/repro
    repro=$work/repro
fi

# The dense spec and its single-process golden.
cat > "$work/dense.json" <<'SPEC'
{
  "version": 1,
  "name": "dense",
  "seed": 7,
  "constellation": { "preset": "starlink-full" },
  "terminals": { "preset": "study" },
  "scheduler": { "min_elevation_deg": 15 },
  "campaign": { "slots": 200, "oracle": true }
}
SPEC
"$repro" -scenario "$work/dense.json" dist > "$work/dense-golden.log"
dense_golden=$(awk '/^sha256 /{print $2}' "$work/dense-golden.log")
[ -n "$dense_golden" ] || { echo "coord_smoke: no dense golden hash"; cat "$work/dense-golden.log"; exit 1; }

"$repro" -worker-listen 127.0.0.1:9773 > "$work/d1.log" 2>&1 &
d1=$!
"$repro" -worker-listen 127.0.0.1:9774 > "$work/d2.log" 2>&1 &
d2=$!
pids="$d1 $d2"
sleep 1
if ! "$repro" -scenario "$work/dense.json" \
    -coord-workers 127.0.0.1:9773,127.0.0.1:9774 \
    -coord-journal "$work/dense-journals" dist > "$work/dense.log" 2>&1; then
    echo "coord_smoke: dense coordinator failed"; cat "$work/dense.log"; exit 1
fi
kill "$d1" "$d2" 2>/dev/null || true
wait "$d1" "$d2" 2>/dev/null || true
pids=""
got=$(awk '/^sha256 /{print $2}' "$work/dense.log")
restarts=$(awk '/shard reassignments/{print $(NF-2)}' "$work/dense.log")
if [ "$got" != "$dense_golden" ] || [ "${restarts:-1}" -ne 0 ]; then
    echo "coord_smoke: dense run: sha256 $got (golden $dense_golden), $restarts shard reassignment(s), want 0"
    cat "$work/dense.log"
    exit 1
fi
echo "coord_smoke: dense spec PASS — sha256 $got, no shard restarted" >&2

# The golden: the identical campaign single-process. `repro dist`
# without -coord-workers runs it through the same encoder.
"$repro" -scale "$scale" -seed "$seed" -slots "$slots" dist > "$work/golden.log"
golden=$(awk '/^sha256 /{print $2}' "$work/golden.log")
[ -n "$golden" ] || { echo "coord_smoke: no golden hash"; cat "$work/golden.log"; exit 1; }
echo "coord_smoke: golden sha256 $golden" >&2

attempt=1
while :; do
    # Two workers, throttled so the campaign is slow enough to kill one
    # in the middle of.
    "$repro" -worker-listen 127.0.0.1:9771 -record-delay "$delay" > "$work/w1.log" 2>&1 &
    w1=$!
    "$repro" -worker-listen 127.0.0.1:9772 -record-delay "$delay" > "$work/w2.log" 2>&1 &
    w2=$!
    pids="$w1 $w2"
    sleep 1

    rm -rf "$work/journals"
    "$repro" -scale "$scale" -seed "$seed" -slots "$slots" \
        -coord-workers 127.0.0.1:9771,127.0.0.1:9772 \
        -coord-journal "$work/journals" dist > "$work/dist.log" 2>&1 &
    coord=$!
    pids="$pids $coord"

    # SIGKILL one worker mid-campaign — the crash under test.
    sleep 0.3
    kill -9 "$w2" 2>/dev/null || true

    if ! wait "$coord"; then
        echo "coord_smoke: coordinator failed"; cat "$work/dist.log"; exit 1
    fi
    kill "$w1" 2>/dev/null || true
    wait "$w1" 2>/dev/null || true
    pids=""

    got=$(awk '/^sha256 /{print $2}' "$work/dist.log")
    if [ "$got" != "$golden" ]; then
        echo "coord_smoke: HASH MISMATCH: distributed $got vs golden $golden"
        cat "$work/dist.log"
        exit 1
    fi
    reassigned=$(awk '/shard reassignments/{print $(NF-2)}' "$work/dist.log")
    if [ "${reassigned:-0}" -ge 1 ]; then
        echo "coord_smoke: PASS — hash matches golden through $reassigned reassignment(s)" >&2
        exit 0
    fi

    # The campaign outran the kill; slow the workers down and try again.
    echo "coord_smoke: attempt $attempt finished before the kill landed; retrying" >&2
    attempt=$((attempt + 1))
    if [ "$attempt" -gt 5 ]; then
        echo "coord_smoke: could not land a mid-campaign kill in 5 attempts"
        exit 1
    fi
    delay=$((${delay%ms} * 2))ms
done
