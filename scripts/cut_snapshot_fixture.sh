#!/usr/bin/env bash
# Cut the data directory of tests/fixtures/serve_parent_snapshot afresh
# into OUT_DIR: a daemon whose persistence freezes right after the first
# `ckpt` record of job-1.campaign, killed there, its wal.log and snapshot
# copied before any restart. scripts/verify.sh cuts into a scratch
# directory and compares with the checked-in files; to re-cut the fixture
# itself (after a format or summation change), pass its directory.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:?usage: scripts/cut_snapshot_fixture.sh OUT_DIR}
cfpd=target/release/cfpd
data=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill -9 "$pid" 2>/dev/null; rm -rf "$data"' EXIT

"$cfpd" serve run --addr 127.0.0.1:0 --data "$data" --workers 1 --http-threads 1 \
    --ckpt-interval 1 --fault-freeze-wal-after 5 > "$data/serve.log" 2>&1 &
pid=$!
# Wait for `$1` to hold a line matching `$2`, while the daemon lives.
await() {
    for _ in $(seq 1 400); do
        grep -q "$2" "$1" 2>/dev/null && return
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    cat "$data/serve.log" >&2
    echo "FAIL: no line matching '$2' in $1" >&2
    exit 1
}
await "$data/serve.log" '^cfpd-serve listening on '
addr=$(sed -n 's/^cfpd-serve listening on //p' "$data/serve.log")
"$cfpd" serve submit tests/fixtures/serve_parent_snapshot/job-1.campaign --addr "$addr" >/dev/null
await "$data/wal.log" ' ckpt job=1 cell=0 step=1 '   # persistence froze with this record
{ kill -9 "$pid"; wait "$pid" || true; } 2>/dev/null
pid=""
mkdir -p "$out"
cp "$data/wal.log" "$data/job-1-cell-0.snap" "$out/"
