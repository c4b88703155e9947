#!/usr/bin/env bash
# CI entrypoint: the full offline verification chain.
#
#   * release build of every workspace target, fully offline (the
#     workspace has zero external dependencies — any attempt to reach a
#     registry is a regression),
#   * the complete test suite (unit, property, invariant, golden-trace),
#   * a chaos smoke: a seeded benign fault-injection run, with DLB off
#     and on, must stay bit-identical to the fault-free run (exit 0),
#     and a fault storm
#     must terminate with a structured deadlock report (exit 3) instead
#     of hanging — both under a hard wall-clock cap,
#   * a golden double-run: the reference layout (`cfpd golden`) and the
#     fast one (`cfpd golden --layout opt`) must each match their own
#     checked-in golden byte-for-byte — and both byte-match again with
#     CFPD_TELEMETRY=1, because telemetry summaries go to stderr only;
#     no pressure solve of either run may take more than 40 iterations
#     (deflation gives ~20, Jacobi CG 175: losing it silently is red),
#   * a lending smoke: `cfpd run --coupled 1 1 --dlb` twice and once
#     without `--dlb` — both lending runs must report grants > 0 on their
#     `dlb:` line (the particle rank lends its only core while it blocks)
#     and all three must print the same `document:` digest (a pool that
#     LeWI resizes mid-sweep computes the bits of one that it does not),
#   * a telemetry smoke: `cfpd report --json` must emit valid JSON
#     whose `pop` object (the run's own rollup) carries PE, LB and
#     CommE, and the overhead bench's --quick run must complete and emit
#     its JSON,
#   * a bench smoke: the hotpath benchmark's --quick run must complete
#     and emit its JSON carrying the per-phase breakdown schema
#     (phases.{spmv,jacobi,axpy_dot,sgs,assembly} + solve + end_to_end),
#     the solve/*, setup/* (seed-search and refine among them),
#     spmm3/sell, solver1/*, particles/* and serve/{boundary,restore} rows,
#     with the Multidep plan build held to at most 2.5 serial element passes
#     (assembly/serial-pass, the scalar oracle pass) and, cut on faces, to
#     0.5 of one, and the serial plan
#     (the batch schedule alone) to 0.17 of one, the reference
#     layout's assembly (assembly/default: the batch engine in list order)
#     within 2x of the fast layout's (assembly/batched-lanes) — both go
#     eight abreast, so more means list order fell back to scalar — the
#     lane SGS sweep (sgs/batched-lanes, what every run does, and
#     sgs/iterating, the same sweep on a field that has to iterate) below
#     its scalar oracle (sgs/default) and the block
#     momentum solve (solver1/block) below the three scalar solves it
#     replaced (solver1/scalar-x3) and the lane-block particle sweep
#     (particles/step-lanes) below its scalar oracle
#     (particles/step-oracle): a lost lane or block path is a red build,
#     not a silently slower step,
#   * a trace-pipeline smoke: `cfpd trace export` writes Paraver +
#     Chrome + summary artifacts that validate against the in-repo
#     RFC 8259 parser, `cfpd trace diff` of two identical-seed traced
#     runs reports a zero structural delta (exit 0), `cfpd trace
#     analyze` finds its critical path within its bounds, and `cfpd
#     golden --trace` keeps stdout byte-identical to the checked-in
#     golden,
#   * a campaign smoke: `cfpd campaign expand` sees the documented cell
#     count (excludes applied), `campaign run --json` of the tiny matrix
#     is valid JSON and byte-identical across pool sizes, and `campaign
#     report` of the small matrix against the blessed baseline
#     (tests/golden/campaign_small.golden) reports zero regressions,
#   * a hetero smoke: the profile x mode campaign matrix matches its
#     blessed baseline (tests/golden/campaign_hetero.golden — skewed
#     rank speeds never move physics), and the single-run golden is
#     untouched with profiles disabled,
#   * a serve smoke: `cfpd serve run` on an ephemeral port accepts the
#     tiny campaign over HTTP, the served result is byte-identical to
#     the direct `campaign run --json` output and cost exactly 2 set-ups,
#     1 memo hit and 3 segment boundaries (every cell, its `dlb = on`
#     one too, is a chain of one-step segments, and that cell runs on
#     the set-up of its `dlb = off` sibling), `/metrics` passes the
#     strict Prometheus lint, a 2-seed x
#     3-step job on one mesh costs exactly 1 set-up for its 6 segments
#     (all counted on `/metrics`, so immune to host noise) and still
#     serves the direct run's bytes, every boundary pinned by then was
#     persisted exactly once (`cfpd_serve_snapshot_persist_us_count`
#     equals `cfpd_serve_boundary_us_count`), `serve drain` checkpoints and exits
#     0, and a daemon restarted on the same data directory answers
#     `serve status` of both jobs with the bytes the first one printed
#     (replay and the live daemon write state through one function) and
#     `serve result` with the direct run's,
#   * a fixture-freshness check: the data directory this build's daemon
#     leaves when it is killed right after the first `ckpt` record of
#     tests/fixtures/serve_parent_snapshot/job-1.campaign
#     (scripts/cut_snapshot_fixture.sh) is byte-equal to the checked-in
#     wal.log and snapshot — a format, digest or summation change that
#     forgets to re-cut the fixture fails here, not at the next restart,
#   * an observability smoke: the goldens and the tiny campaign stay
#     byte-identical with the flight recorder on (CFPD_FLIGHT=1 —
#     recording is timing-only by contract), `cfpd flight dump |
#     analyze` round-trips through the digest guard, `cfpd report
#     --baseline` against its own --json capture reports zero
#     regressions, a deadline-killed daemon job leaves a
#     digest-valid flight dump next to its WAL that `flight analyze`
#     accepts, and the flight recorder's per-record cost in the quick
#     overhead bench stays within the 100 ns budget,
#   * a workspace-wide warning gate: every crate and every target must
#     compile without a single compiler warning,
#   * a knob gate: nothing under crates/, scripts/, tests/ or examples/
#     may name the layout environment variable this repo once read — a
#     layout is chosen by name (`--layout`, the DSL `layout` key), never
#     by the environment,
#   * an ordering gate: no sweep of crates/solver/src links subdomain
#     tasks with `mutexinoutset` (either order) instead of an ordered
#     edge; only the scalar SGS oracle, which adds into no shared row,
#     may,
#   * a one-engine gate: the element-at-a-time assembly loop
#     (`assemble_generic`) is named nowhere under crates/*/src but in
#     cfpd_solver::oracle, which no run reaches,
#   * a one-policy gate: reactive LeWI is the only way cores move, and
#     a blocked rank lends every core, so the retired predictive
#     policy's names, the keep-one and neediest variants, the lending
#     lease and the timeout hook and non-blocking calls of the virtual
#     MPI appear nowhere under crates/, tests/ or examples/, and the
#     virtual MPI defines no timeout-taking or non-blocking receive,
#   * a one-codec gate: the record grammar's primitives are defined in
#     cfpd_testkit::record only, the lenient key=value map is gone, and
#     no hand-rolled hex parse is back in the checkpoint, snapshot, WAL
#     or flight-dump crates,
#   * a one-rollup gate: POP efficiencies come from cfpd_trace::PopTotals
#     over a run's own phase record, so the process-global POP table,
#     its phase enum and the simulation's mirror into it are named
#     nowhere under crates/, tests/ or examples/,
#   * a one-cell-path gate: every cell checkpoints at step boundaries,
#     so the daemon's predicate for cells that could not and the
#     capture-but-keep-running run option are named nowhere under
#     crates/, tests/ or examples/,
#   * a reachability gate: the particle phase has one force model (drag,
#     gravity, buoyancy) and one step, the runtime one loop family, so
#     the extended force model, the second particle entry point, the
#     loop primitives no sweep called and the pub items nothing named
#     appear nowhere under crates/, tests/ or examples/; nor do the
#     multi-node DLB cluster and the statistics kept beside the
#     arbiters' event logs (a run has one LeWI arbiter, whose log is
#     its only record), nor a second disjoint-write wrapper, the
#     raw-pointer SELL entry points or the deflation's nnz-long slot map,
#     nor a second front door for a run: a run is one Scenario, so the
#     retired wrappers run_simulation, run_simulation_opts,
#     run_simulation_fallible and golden_trace_traced, and the public
#     header renderer render_golden_header_for (render_golden_document
#     owns the document's layout), are named nowhere (word match),
#   * an unsafe gate: `unsafe` appears under crates/*/src only in
#     solver's simd.rs, shared.rs and sell.rs and runtime's pool.rs and
#     taskgraph.rs; every other crate root and every binary forbids
#     unsafe_code, and the solver and runtime roots deny it,
#   * a blocking-accept gate: the daemon's HTTP acceptors block in
#     accept() and a stop (kill, the end of a drain) wakes them with a
#     connection, so nothing under crates/serve/src makes a socket
#     non-blocking and accept_loop never sleeps,
#   * a size ledger: the production code lines per crate (the rule of
#     cfpd_testkit::loc) go to results/loc.json, with a provenance line
#     appended to results/trajectory.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== release build (offline) =="
cargo build --release --offline --all-targets

echo "== test suite (offline) =="
cargo test -q --offline

echo "== chaos smoke (seeded fault injection) =="
cfpd=target/release/cfpd
timeout 120 "$cfpd" chaos --seed 7 >/dev/null
timeout 120 "$cfpd" chaos --seed 7 --dlb >/dev/null
rc=0
timeout 120 "$cfpd" chaos --seed 7 --storm >/dev/null || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: chaos storm exited $rc, expected 3 (structured deadlock report)" >&2
    exit 1
fi
timeout 120 "$cfpd" chaos --seed 7 --json | python3 -m json.tool >/dev/null \
    || { echo "FAIL: chaos --json is not valid JSON" >&2; exit 1; }

echo "== golden double-run (default + opt layout) =="
timeout 120 "$cfpd" golden --ranks 2 | diff -q - tests/golden/sync_small.golden \
    || { echo "FAIL: default-layout golden drifted" >&2; exit 1; }
timeout 120 "$cfpd" golden --ranks 2 --layout opt | diff -q - tests/golden/sync_small_opt.golden \
    || { echo "FAIL: opt-layout golden drifted" >&2; exit 1; }

echo "== deflation gate (Poisson iterations of both golden runs) =="
worst=$( { timeout 120 "$cfpd" golden --ranks 2; timeout 120 "$cfpd" golden --ranks 2 --layout opt; } \
    | sed -n 's/.* system=3 iters=\([0-9]*\) .*/\1/p' | sort -n | tail -1)
if [ -z "$worst" ] || [ "$worst" -gt 40 ]; then
    echo "FAIL: a pressure solve of the golden run took ${worst:-no} iterations (> 40): deflation lost" >&2
    exit 1
fi

echo "== golden double-run under CFPD_TELEMETRY=1 (stderr-only contract) =="
CFPD_TELEMETRY=1 timeout 120 "$cfpd" golden --ranks 2 2>/dev/null | diff -q - tests/golden/sync_small.golden \
    || { echo "FAIL: telemetry perturbed the default golden" >&2; exit 1; }
CFPD_TELEMETRY=1 timeout 120 "$cfpd" golden --ranks 2 --layout opt 2>/dev/null | diff -q - tests/golden/sync_small_opt.golden \
    || { echo "FAIL: telemetry perturbed the opt golden" >&2; exit 1; }

echo "== lending smoke (coupled 1+1: grants > 0, one document with and without DLB) =="
lend_docs=""
for dlb in --dlb --dlb ""; do
    out=$(timeout 120 "$cfpd" run --coupled 1 1 $dlb)
    if [ -n "$dlb" ]; then
        grants=$(sed -n 's|^dlb: [0-9]* lends / \([0-9]*\) grants / .*|\1|p' <<<"$out")
        if [ -z "$grants" ] || [ "$grants" -eq 0 ]; then
            echo "FAIL: cfpd run --coupled 1 1 --dlb granted ${grants:-no} cores: LeWI lends nothing" >&2
            exit 1
        fi
    fi
    lend_docs+="$(grep '^document: ' <<<"$out")"$'\n'
done
if [ "$(sort -u <<<"$lend_docs" | grep -c '^document: ')" -ne 1 ]; then
    echo "FAIL: lending moved the document: $lend_docs" >&2
    exit 1
fi

echo "== telemetry smoke (cfpd report --json) =="
report=$(timeout 120 "$cfpd" report --json)
python3 -m json.tool <<<"$report" >/dev/null \
    || { echo "FAIL: cfpd report --json is not valid JSON" >&2; exit 1; }
python3 -c '
import json, sys
pop = json.load(sys.stdin).get("pop", {})
missing = [k for k in ("parallel_efficiency", "load_balance", "comm_efficiency") if k not in pop]
sys.exit("missing pop." + ", pop.".join(missing) if missing else 0)
' <<<"$report" || { echo "FAIL: cfpd report --json lacks the POP rollup" >&2; exit 1; }

echo "== bench smoke (hotpath --quick + telemetry overhead --quick) =="
timeout 300 target/release/hotpath --quick >/dev/null
test -s results/BENCH_hotpath_quick.json || { echo "FAIL: BENCH_hotpath_quick.json missing" >&2; exit 1; }
python3 -m json.tool results/BENCH_hotpath_quick.json >/dev/null \
    || { echo "FAIL: hotpath JSON invalid" >&2; exit 1; }
# The per-phase schema the perf docs and the trajectory gate key on.
for key in '"phases"' '"spmv"' '"jacobi"' '"axpy_dot"' '"sgs"' '"assembly"' \
           '"solve"' '"iterations"' '"end_to_end"' '"default_ns"' '"opt_ns"' '"speedup"'; do
    grep -q "$key" results/BENCH_hotpath_quick.json \
        || { echo "FAIL: BENCH_hotpath_quick.json missing $key" >&2; exit 1; }
done
# Set-up stays linear: building the Multidep plan may cost at most 2.5
# serial element passes (`assembly/serial-pass`: every element's scalar
# momentum kernel and scatter on a one-thread pool). Both rows run on
# one thread, so host load moves them together: the ratio reads 1.1-1.6
# here and in the full artifact since a plan also builds its batch
# schedule (PR 24; 0.7-1.1 and 1.08 for the bare plan before, 1.2-2.3
# and 2.05 while every seed search walked the explicit element graph,
# 8-12 before the set-up rewrite of PR 13). ISSUE 13 named `assembly/batched-lanes` x 15; that
# row runs on the 2-worker pool and the ratio against it swung 5.6-19
# for one binary on this host.
python3 - <<'PYEOF'
import json, sys
doc = json.load(open("results/BENCH_hotpath_quick.json"))
rows = {r["name"]: r["median_ns"] for r in doc["rows"]}
for name in ("setup/element-graph", "setup/seed-search", "setup/kway-16", "setup/refine",
             "setup/plan-multidep", "setup/plan-serial",
             "setup/locator-build", "setup/locator-lazy", "setup/inject-10k", "setup/inject-10k-cold",
             "setup/deflation-build",
             "solve/poisson-jacobi", "solve/poisson-deflated",
             "solve/poisson-deflated-native", "sgs/default", "sgs/batched-lanes", "sgs/iterating",
             "assembly/default", "assembly/batched-lanes", "assembly/oracle",
             "assembly/serial-pass", "spmm3/sell", "solver1/scalar-x3", "solver1/block",
             "particles/step-oracle", "particles/step-lanes",
             "serve/boundary", "serve/restore"):
    if name not in rows:
        sys.exit(f"FAIL: hotpath bench has no {name} row")
plan, serial_pass = rows["setup/plan-multidep"], rows["assembly/serial-pass"]
if plan > 2.5 * serial_pass:
    sys.exit(f"FAIL: setup/plan-multidep {plan:.0f} ns > 2.5 x assembly/serial-pass {serial_pass:.0f} ns")
# The Multidep subdomains are cut on the face graph of lane blocks and
# then of elements, not on the node-sharing element graph (45.5
# neighbours per element): four alternated quick runs a side read
# 0.20-0.29 x assembly/serial-pass against 0.84-0.98 on the node-sharing
# graph. Both rows run on one thread; "above 0.5" means the plan cuts a
# node-sharing graph again.
if plan > 0.5 * serial_pass:
    sys.exit(f"FAIL: setup/plan-multidep {plan:.0f} ns > 0.5 x assembly/serial-pass {serial_pass:.0f} ns")
# The batch schedule alone (a serial plan: no partition) cuts its sets
# and writes every scatter index in one pass over the pattern rows:
# five quick runs a side read 0.111-0.128 x assembly/serial-pass against
# 0.210-0.227 with a binary search per index. Both rows run on one thread;
# the bound sits between the two sides.
plan = rows["setup/plan-serial"]
if plan > 0.17 * serial_pass:
    sys.exit(f"FAIL: setup/plan-serial {plan:.0f} ns > 0.17 x assembly/serial-pass {serial_pass:.0f} ns")
# Injection scans the candidate list of one sub-box of a grid cell, not
# the cell's whole 27-cell neighbourhood (PR 26): 10 000 injections read
# 1.1-1.2 x one locator build here at 8^3 sub-boxes a cell (1.5-1.6 at 4^3,
# 4.4 x with the full scan). Both rows run on one thread; "above 2.5"
# means the sub-box lists are gone.
inject, build = rows["setup/inject-10k"], rows["setup/locator-build"]
if inject > 2.5 * build:
    sys.exit(f"FAIL: setup/inject-10k {inject:.0f} ns > 2.5 x setup/locator-build {build:.0f} ns")
# The same injections on a geometry no query has touched build each list
# their points land in, and only those: fourteen quick runs read 1.07-1.89 x
# one locator build, and 3.0-4.7 with every list of a touched cell built
# at once. "Above 2.5" means the lists are built eagerly again.
cold = rows["setup/inject-10k-cold"]
if cold > 2.5 * build:
    sys.exit(f"FAIL: setup/inject-10k-cold {cold:.0f} ns > 2.5 x setup/locator-build {build:.0f} ns")
# `Locator::new` alone builds no face plane: the first query that reads
# an element's planes builds its block of 64. setup/locator-build forces
# every block (one containment test per element). Five quick runs a side
# read 0.34-0.51 x that complete build, and 0.90-0.96 with every plane
# built in `new`. Both rows run on one thread; "above 0.7" means the
# planes are built eagerly again.
lazy = rows["setup/locator-lazy"]
if lazy > 0.7 * build:
    sys.exit(f"FAIL: setup/locator-lazy {lazy:.0f} ns > 0.7 x setup/locator-build {build:.0f} ns")
# Same elements, same subdomains, same pool, the same lane kernels: the
# reference layout cuts its batches in list order (runs of ~20 elements,
# a scalar tail per run), the fast one grouped by kind. The ratio reads
# 0.9-1.1 here and in full runs (the two rows swing together with the
# host); the element-at-a-time loop it replaced (assembly/oracle) reads
# 4-6.
default, lanes = rows["assembly/default"], rows["assembly/batched-lanes"]
if default > 2 * lanes:
    sys.exit(f"FAIL: assembly/default {default:.0f} ns > 2 x assembly/batched-lanes {lanes:.0f} ns")
# Same elements, same pool, eight per vector op against one through the
# oracle's strategy schedule: the ratio reads about 4 here (2.6 against
# 16.2 ms in the full artifact), so "not below" means the lane path is gone.
lanes, scalar = rows["sgs/batched-lanes"], rows["sgs/default"]
if lanes >= scalar:
    sys.exit(f"FAIL: sgs/batched-lanes {lanes:.0f} ns is not below sgs/default {scalar:.0f} ns")
if doc["phases"]["sgs"]["opt_ns"] != round(lanes):
    sys.exit("FAIL: phases.sgs.opt_ns does not report the sgs/batched-lanes row")
# The lane sweep on a field that iterates ~4 times per element, as a step's
# does, against the oracle's one iteration per point: 0.39-0.42 here (0.45-0.47
# with one fixed-point loop per point), so "not below" means the iterating
# sweep fell back to scalar. Against sgs/batched-lanes it reads 1.61-1.86
# (1.79-2.16 with a loop per point): too close on this mesh for a gate.
iterating = rows["sgs/iterating"]
if iterating >= scalar:
    sys.exit(f"FAIL: sgs/iterating {iterating:.0f} ns is not below sgs/default {scalar:.0f} ns")
# Same system, same start, same thread: 11 three-column sweeps against
# 27 SpMVs; the ratio reads 0.40-0.51 here, so "not below" means the
# block solve has lost what it is there for.
block, scalar = rows["solver1/block"], rows["solver1/scalar-x3"]
if block >= scalar:
    sys.exit(f"FAIL: solver1/block {block:.0f} ns is not below solver1/scalar-x3 {scalar:.0f} ns")
# Same particles, same thread, eight Newmark/Picard drag solves per
# vector op against one: the ratio reads 0.70-0.88 here (the low end on a
# calm host), so "not below" means the lane sweep is gone.
lanes, scalar = rows["particles/step-lanes"], rows["particles/step-oracle"]
if lanes >= scalar:
    sys.exit(f"FAIL: particles/step-lanes {lanes:.0f} ns is not below particles/step-oracle {scalar:.0f} ns")
PYEOF
timeout 300 target/release/overhead --quick >/dev/null
test -s results/BENCH_telemetry_overhead_quick.json \
    || { echo "FAIL: BENCH_telemetry_overhead_quick.json missing" >&2; exit 1; }
python3 -m json.tool results/BENCH_telemetry_overhead_quick.json >/dev/null \
    || { echo "FAIL: telemetry overhead JSON invalid" >&2; exit 1; }

echo "== trace pipeline smoke (export + diff + analyze + golden --trace) =="
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
timeout 300 "$cfpd" trace export --out "$tracedir/a" >/dev/null
timeout 300 "$cfpd" trace export --out "$tracedir/b" >/dev/null
for f in trace.prv trace.pcf trace.row chrome.json summary.json; do
    test -s "$tracedir/a/$f" || { echo "FAIL: trace export missing $f" >&2; exit 1; }
done
python3 -m json.tool "$tracedir/a/chrome.json" >/dev/null \
    || { echo "FAIL: chrome.json invalid" >&2; exit 1; }
python3 -m json.tool "$tracedir/a/summary.json" >/dev/null \
    || { echo "FAIL: summary.json invalid" >&2; exit 1; }
timeout 300 "$cfpd" trace diff "$tracedir/a" "$tracedir/b" >/dev/null \
    || { echo "FAIL: identical-seed trace diff was not a zero delta" >&2; exit 1; }
timeout 300 "$cfpd" trace analyze >/dev/null \
    || { echo "FAIL: trace analyze: the critical path left its bounds" >&2; exit 1; }
timeout 300 "$cfpd" golden --ranks 2 --trace "$tracedir/g" 2>/dev/null \
    | diff -q - tests/golden/sync_small.golden \
    || { echo "FAIL: --trace perturbed the golden document" >&2; exit 1; }
test -s "$tracedir/g/trace.prv" || { echo "FAIL: golden --trace wrote no trace" >&2; exit 1; }

echo "== campaign smoke (expand + run + report vs blessed baseline) =="
# Capture, then grep: `grep -q` closing the pipe early would EPIPE the
# binary and trip pipefail even on a match.
expand_out=$(timeout 120 "$cfpd" campaign expand examples/campaigns/tiny.campaign)
grep -q "3 cells (4 before excludes)" <<<"$expand_out" \
    || { echo "FAIL: tiny campaign expansion drifted" >&2; exit 1; }
timeout 300 "$cfpd" campaign run examples/campaigns/tiny.campaign --json > "$tracedir/tiny-a.json"
timeout 300 "$cfpd" campaign run examples/campaigns/tiny.campaign --jobs 1 --json > "$tracedir/tiny-b.json"
cmp -s "$tracedir/tiny-a.json" "$tracedir/tiny-b.json" \
    || { echo "FAIL: campaign report depends on the worker-pool size" >&2; exit 1; }
python3 -m json.tool "$tracedir/tiny-a.json" >/dev/null \
    || { echo "FAIL: campaign run --json is not valid JSON" >&2; exit 1; }
timeout 600 "$cfpd" campaign report examples/campaigns/small.campaign \
    --baseline tests/golden/campaign_small.golden >/dev/null \
    || { echo "FAIL: small campaign drifted from the blessed baseline" >&2; exit 1; }

echo "== hetero smoke (profile x mode campaign) =="
# The profile x mode matrix against its blessed baseline: hetero
# profiles are timing-only, so every cell's physics digest must match
# the golden exactly — this runs the mixed mn4_thunder/thunder_tail
# profiles under LeWI end-to-end.
timeout 600 "$cfpd" campaign report examples/campaigns/hetero.campaign \
    --baseline tests/golden/campaign_hetero.golden >/dev/null \
    || { echo "FAIL: hetero campaign drifted from the blessed baseline" >&2; exit 1; }
# Profiles off must leave the single-run golden untouched (the hook is
# not even installed); this re-checks the contract right next to the
# code that could break it.
timeout 120 "$cfpd" golden --ranks 2 | diff -q - tests/golden/sync_small.golden \
    || { echo "FAIL: golden drifted with hetero compiled in but disabled" >&2; exit 1; }

echo "== serve smoke (daemon lifecycle: submit, poll, result, metrics, drain, replay) =="
# Set $addr to what the daemon of pid $2 says it listens on in its log $1.
listening_addr() {
    addr=""
    for _ in $(seq 1 200); do
        addr=$(sed -n 's/^cfpd-serve listening on //p' "$1")
        [ -n "$addr" ] && return
        kill -0 "$2" 2>/dev/null || { cat "$1"; echo "FAIL: serve daemon died on startup" >&2; exit 1; }
        sleep 0.05
    done
    echo "FAIL: serve daemon never reported its address" >&2; exit 1
}
servedir="$tracedir/serve-data"
timeout 300 "$cfpd" serve run --addr 127.0.0.1:0 --data "$servedir" \
    > "$tracedir/serve.log" 2>&1 &
serve_pid=$!
listening_addr "$tracedir/serve.log" "$serve_pid"
"$cfpd" serve submit examples/campaigns/tiny.campaign --addr "$addr" > "$tracedir/serve-submit.json"
job=$(grep -o '"job":[0-9]*' "$tracedir/serve-submit.json" | head -1 | cut -d: -f2)
[ -n "$job" ] || { echo "FAIL: serve submit returned no job id" >&2; exit 1; }
done_seen=""
for _ in $(seq 1 600); do
    if "$cfpd" serve status "$job" --addr "$addr" | grep -q '"state":"done"'; then
        done_seen=1; break
    fi
    sleep 0.1
done
[ -n "$done_seen" ] || { echo "FAIL: served tiny campaign never reached done" >&2; exit 1; }
"$cfpd" serve result "$job" --addr "$addr" > "$tracedir/serve-result.json"
cmp -s "$tracedir/serve-result.json" "$tracedir/tiny-a.json" \
    || { echo "FAIL: served result differs from the direct campaign run" >&2; exit 1; }
"$cfpd" serve metrics --addr "$addr" --lint > /dev/null \
    || { echo "FAIL: /metrics failed the strict Prometheus lint" >&2; exit 1; }
metric() { "$cfpd" serve metrics --addr "$addr" | awk -v m="$1" '$1 == m { print $2 }'; }
# One cell path, one memo: tiny's default/off and default/on cells share
# a set-up, opt/off is the second build, and each of the three 2-step
# cells parks once at the default 1-step interval, the DLB one included.
builds=$(metric cfpd_core_prepare_builds); hits=$(metric cfpd_core_prepare_hits)
bounds=$(metric cfpd_serve_boundary_us_count)
if [ "${builds:-0}" -ne 2 ] || [ "${hits:-0}" -ne 1 ] || [ "${bounds:-0}" -ne 3 ]; then
    echo "FAIL: the tiny campaign cost ${builds:-0} prepare builds, ${hits:-0} memo hits and ${bounds:-0} boundaries on a fresh daemon (want 2, 1, 3)" >&2
    exit 1
fi
tiny_job=$job
# Set up once per mesh, not once per segment: two cells that differ in
# seed only, three one-step segments each, on a mesh no earlier job of
# this daemon used — one prepare build, one memo hit, four boundaries.
cat > "$tracedir/reuse.campaign" <<'CAMPAIGN'
[campaign]
name = reuse
[scenario]
ranks = 1
generations = 0
particles = 20
steps = 3
[matrix]
seed = 1, 2
CAMPAIGN
builds0=$builds; hits0=$hits
bounds0=$(metric cfpd_serve_boundary_us_count)
"$cfpd" serve submit "$tracedir/reuse.campaign" --addr "$addr" > "$tracedir/reuse-submit.json"
job=$(grep -o '"job":[0-9]*' "$tracedir/reuse-submit.json" | head -1 | cut -d: -f2)
done_seen=""
for _ in $(seq 1 600); do
    if "$cfpd" serve status "$job" --addr "$addr" | grep -q '"state":"done"'; then
        done_seen=1; break
    fi
    sleep 0.1
done
[ -n "$done_seen" ] || { echo "FAIL: served reuse campaign never reached done" >&2; exit 1; }
builds=$(( $(metric cfpd_core_prepare_builds) - builds0 ))
hits=$(( $(metric cfpd_core_prepare_hits) - ${hits0:-0} ))
bounds=$(( $(metric cfpd_serve_boundary_us_count) - ${bounds0:-0} ))
if [ "$builds" -ne 1 ] || [ "$hits" -ne 1 ] || [ "$bounds" -ne 4 ]; then
    echo "FAIL: 2 cells x 3 segments cost $builds prepare builds, $hits memo hits, $bounds boundaries (want 1, 1, 4)" >&2
    exit 1
fi
# A boundary's snapshot is written and pinned beside the next segment:
# every boundary of the finished job was persisted exactly once.
persists=$(metric cfpd_serve_snapshot_persist_us_count); pinned=$(metric cfpd_serve_boundary_us_count)
if [ -z "$persists" ] || [ "$persists" != "$pinned" ]; then
    echo "FAIL: ${persists:-no} snapshot persists for ${pinned:-no} pinned boundaries (want equal counts)" >&2
    exit 1
fi
"$cfpd" serve result "$job" --addr "$addr" > "$tracedir/reuse-served.json"
timeout 300 "$cfpd" campaign run "$tracedir/reuse.campaign" --json > "$tracedir/reuse-direct.json"
cmp -s "$tracedir/reuse-served.json" "$tracedir/reuse-direct.json" \
    || { echo "FAIL: served reuse campaign differs from the direct run" >&2; exit 1; }
for j in "$tiny_job" "$job"; do
    "$cfpd" serve status "$j" --addr "$addr" > "$tracedir/serve-status-$j.live"
done
"$cfpd" serve drain --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "FAIL: serve daemon did not drain cleanly" >&2; exit 1; }
grep -q "cfpd-serve drained" "$tracedir/serve.log" \
    || { echo "FAIL: drain did not complete" >&2; exit 1; }
# Replay is the live daemon's own transition function: a daemon
# restarted from the WAL says of both jobs what the first one said.
timeout 300 "$cfpd" serve run --addr 127.0.0.1:0 --data "$servedir" \
    > "$tracedir/serve-replay.log" 2>&1 &
serve_pid=$!
listening_addr "$tracedir/serve-replay.log" "$serve_pid"
for j in "$tiny_job" "$job"; do
    "$cfpd" serve status "$j" --addr "$addr" | cmp -s - "$tracedir/serve-status-$j.live" \
        || { echo "FAIL: job $j reads differently on a daemon restarted from its WAL" >&2; exit 1; }
done
"$cfpd" serve result "$tiny_job" --addr "$addr" | cmp -s - "$tracedir/tiny-a.json" \
    || { echo "FAIL: replayed result differs from the direct campaign run" >&2; exit 1; }
"$cfpd" serve result "$job" --addr "$addr" | cmp -s - "$tracedir/reuse-direct.json" \
    || { echo "FAIL: replayed reuse result differs from the direct run" >&2; exit 1; }
"$cfpd" serve drain --addr "$addr" > /dev/null
wait "$serve_pid" || { echo "FAIL: restarted serve daemon did not drain cleanly" >&2; exit 1; }

echo "== fixture freshness (the checked-in snapshot is what this build cuts) =="
scripts/cut_snapshot_fixture.sh "$tracedir/fixture"
for f in wal.log job-1-cell-0.snap; do
    cmp -s "$tracedir/fixture/$f" "tests/fixtures/serve_parent_snapshot/$f" \
        || { echo "FAIL: this build cuts another $f than tests/fixtures/serve_parent_snapshot holds: re-cut it (its README says how)" >&2; exit 1; }
done

echo "== observability smoke (flight recorder + watchdog + baseline diff) =="
# Recording is timing-only by contract: both goldens and the campaign
# document must stay byte-identical with the ring buffer recording.
CFPD_FLIGHT=1 timeout 120 "$cfpd" golden --ranks 2 | diff -q - tests/golden/sync_small.golden \
    || { echo "FAIL: flight recorder perturbed the default golden" >&2; exit 1; }
CFPD_FLIGHT=1 timeout 120 "$cfpd" golden --ranks 2 --layout opt | diff -q - tests/golden/sync_small_opt.golden \
    || { echo "FAIL: flight recorder perturbed the opt golden" >&2; exit 1; }
CFPD_FLIGHT=1 timeout 300 "$cfpd" campaign run examples/campaigns/tiny.campaign --json > "$tracedir/tiny-flight.json"
cmp -s "$tracedir/tiny-flight.json" "$tracedir/tiny-a.json" \
    || { echo "FAIL: flight recorder perturbed the campaign document" >&2; exit 1; }
# The black box round-trips through its own digest guard.
timeout 300 "$cfpd" flight dump --ranks 2 --out "$tracedir/smoke.flight" >/dev/null 2>&1
test -s "$tracedir/smoke.flight" || { echo "FAIL: flight dump wrote nothing" >&2; exit 1; }
timeout 120 "$cfpd" flight analyze "$tracedir/smoke.flight" >/dev/null \
    || { echo "FAIL: flight analyze rejected a fresh dump" >&2; exit 1; }
# A report diffed against its own capture must show zero regressions.
timeout 120 "$cfpd" report --json > "$tracedir/report-base.json"
timeout 120 "$cfpd" report --baseline "$tracedir/report-base.json" >/dev/null \
    || { echo "FAIL: report --baseline regressed against its own capture" >&2; exit 1; }
# A deadline-killed serve job leaves a digest-valid flight dump next to
# its WAL (stall > deadline makes the kill deterministic).
flightdir="$tracedir/serve-flight"
timeout 300 "$cfpd" serve run --addr 127.0.0.1:0 --data "$flightdir" \
    --deadline 0.3 --fault-stall-first 1 --fault-stall-ms 800 \
    > "$tracedir/serve-flight.log" 2>&1 &
flight_pid=$!
listening_addr "$tracedir/serve-flight.log" "$flight_pid"
"$cfpd" serve submit examples/campaigns/tiny.campaign --addr "$addr" >/dev/null
failed_seen=""
for _ in $(seq 1 200); do
    if "$cfpd" serve status 1 --addr "$addr" | grep -q '"state":"failed"'; then
        failed_seen=1; break
    fi
    sleep 0.1
done
[ -n "$failed_seen" ] || { echo "FAIL: deadline kill never fired" >&2; exit 1; }
for _ in $(seq 1 100); do
    test -s "$flightdir/job-1.flight" && break
    sleep 0.05
done
test -s "$flightdir/job-1.flight" \
    || { echo "FAIL: deadline-killed job left no flight dump" >&2; exit 1; }
timeout 120 "$cfpd" flight analyze "$flightdir/job-1.flight" >/dev/null \
    || { echo "FAIL: the post-mortem flight dump did not digest-verify" >&2; exit 1; }
kill "$flight_pid" 2>/dev/null || true
wait "$flight_pid" 2>/dev/null || true
# The recorder's per-record cost must stay within the pinned budget.
python3 - <<'PYEOF' || { echo "FAIL: flight_record exceeded the 100 ns/record budget" >&2; exit 1; }
import json, sys
doc = json.load(open("results/BENCH_telemetry_overhead_quick.json"))
rows = {r["name"]: r["median_ns"] for r in doc["rows"]}
if "flight_record" not in rows:
    sys.exit("overhead bench has no flight_record row")
if rows["flight_record"] > 100.0:
    sys.exit(f"flight_record {rows['flight_record']} ns/record > 100 ns budget")
PYEOF

echo "== workspace warning gate =="
find crates -name '*.rs' -path '*/src/*' -exec touch {} +
out=$(cargo build --offline --all-targets 2>&1)
if grep -q "^warning" <<<"$out"; then
    echo "$out"
    echo "FAIL: workspace emits compiler warnings" >&2
    exit 1
fi

echo "== knob gate (no layout environment variable) =="
# The name is spelled in two pieces so that this file does not match.
if grep -rn 'CFPD_''LAYOUT' crates scripts tests examples; then
    echo "FAIL: the layout environment variable is back: layouts are chosen by name" >&2
    exit 1
fi

echo "== ordering gate (no mutexinoutset edge in a solver sweep) =="
if grep -rn 'Dep::mutex' crates/solver/src | grep -v '^crates/solver/src/oracle.rs:'; then
    echo "FAIL: a solver sweep links subdomain tasks with mutexinoutset: shared rows lose their fixed order" >&2
    exit 1
fi

echo "== one-engine gate (assemble_generic lives in the oracle only) =="
if grep -rn 'assemble_generic' crates/*/src | grep -v '^crates/solver/src/oracle.rs:'; then
    echo "FAIL: the element-at-a-time assembly loop is named outside cfpd_solver::oracle" >&2
    exit 1
fi

echo "== one-policy gate (reactive LeWI is the only way cores move) =="
# The bracketed letters keep this script from matching itself.
if grep -rnE 'Predic[t]ive|pre_len[d]|ImbalancePredic[t]or|DlbPolic[y]' crates tests examples; then
    echo "FAIL: a name of the retired predictive DLB policy is back" >&2
    exit 1
fi
if grep -rnE 'KeepOn[e]|Needies[t]|LendPolic[y]|GrantPolic[y]|sweep_leas[e]|on_timeou[t]|isen[d]|irec[v]' \
        crates tests examples; then
    echo "FAIL: a retired LeWI variant, the lending lease or a timeout/non-blocking MPI call is back" >&2
    exit 1
fi
if grep -rnE 'fn (recv_timeou[t]|try_rec[v]|barrier_timeou[t])[<(]' crates/simmpi/src; then
    echo "FAIL: the virtual MPI has one blocking path: no timeout-taking or non-blocking receive" >&2
    exit 1
fi

echo "== one-codec gate (every record format reads through cfpd_testkit::record) =="
# The bracketed letters keep this script from matching itself.
if grep -rnE '\bfn (hex16|count_lines|split_lines|bounded_count|enc|dec)\b|\bstruct Curso[r]\b' \
        crates/*/src | grep -v '^crates/testkit/src/record.rs:'; then
    echo "FAIL: a record-codec primitive is defined outside cfpd_testkit::record" >&2
    exit 1
fi
if grep -rn 'KeyValue[s]' crates/*/src tests examples scripts benchmark/src; then
    echo "FAIL: the lenient key=value map is back: fields are read in order" >&2
    exit 1
fi
if grep -rn 'from_str_radi[x]' crates/core/src crates/serve/src crates/flight/src; then
    echo "FAIL: a hand-rolled hex parse is back: use cfpd_testkit::record::hex16" >&2
    exit 1
fi

echo "== one-rollup gate (POP numbers come from the run's own phase record) =="
# The bracketed letters keep this script from matching itself.
if grep -rnE 'cfpd_telemetry::po[p]|PopPhas[e]|pop_recor[d]' crates tests examples; then
    echo "FAIL: the process-global POP table or its mirror is back: use cfpd_trace::PopTotals" >&2
    exit 1
fi

echo "== one-cell-path gate (every cell checkpoints at step boundaries) =="
# The bracketed letters keep this script from matching itself.
if grep -rnE 'checkpointabl[e]|checkpoint_a[t]' crates tests examples; then
    echo "FAIL: a cell path that cannot checkpoint, or capture without stopping, is back" >&2
    exit 1
fi

echo "== reachability gate (nothing a run cannot reach) =="
# The bracketed letters keep this script from matching itself.
if grep -rnE 'TransportMode[l]|DispersionRn[g]|saffman_lif[t]|brownian_forc[e]|turbulent_fluctuatio[n]|step_particles_wit[h]' \
        crates tests examples; then
    echo "FAIL: the extended particle force model or a second particle step is back" >&2
    exit 1
fi
if grep -rnE 'parallel_reduc[e]|parallel_for_stati[c]|parallel_do[t]|parallel_for_with_ti[d]|paper_lik[e]|fn to_cs[v]' \
        crates tests examples; then
    echo "FAIL: a loop primitive no sweep calls or a pub item nothing names is back" >&2
    exit 1
fi
if grep -rnE 'DlbCluste[r]|new_bloc[k]|total_stat[s]|all_event[s]|JobLendStat[s]' crates tests examples; then
    echo "FAIL: a second DLB layer or record is back: a run has one DlbNode and its event log is the record" >&2
    exit 1
fi
# The gather map's field was `src`, too common a name to grep for.
if grep -rnE 'update_value[s]|with_value[s]|zero_matri[x]' crates tests examples; then
    echo "FAIL: a second value array per assembled matrix is back: assembly scatters into SELL order" >&2
    exit 1
fi

if grep -rnE 'DisjointVie[w]|SgsVie[w]|spmv_chunk_range_pt[r]|spmm3_chunk_range_pt[r]|aw_slo[t]' \
        crates tests examples; then
    echo "FAIL: a second disjoint-write wrapper, a raw-pointer SELL entry point or the AW slot map is back" >&2
    exit 1
fi
if grep -rnwE 'run_simulatio[n](_opts|_fallible)?|golden_trace_trace[d]|render_golden_header_fo[r]' \
        crates tests examples; then
    echo "FAIL: a second front door for a run is back: a run is one Scenario, its document render_golden_document's" >&2
    exit 1
fi

echo "== unsafe gate (disjoint writes go through cfpd_solver::shared) =="
if grep -rnw 'unsafe' crates/*/src \
        | grep -vE '^crates/solver/src/(simd|shared|sell)\.rs:|^crates/runtime/src/(pool|taskgraph)\.rs:'; then
    echo "FAIL: unsafe outside simd.rs, shared.rs, sell.rs, pool.rs and taskgraph.rs" >&2
    exit 1
fi
for root in crates/*/src/lib.rs crates/*/src/bin/*.rs; do
    case "$root" in crates/solver/src/lib.rs|crates/runtime/src/lib.rs) continue ;; esac
    grep -q '^#!\[forbid(unsafe_code)\]' "$root" \
        || { echo "FAIL: $root does not forbid unsafe_code" >&2; exit 1; }
done
for root in crates/solver/src/lib.rs crates/runtime/src/lib.rs; do
    grep -q '^#!\[deny(unsafe_code)\]' "$root" \
        || { echo "FAIL: $root does not deny unsafe_code" >&2; exit 1; }
done

echo "== blocking-accept gate (the HTTP front end is woken, never polled) =="
# The bracketed letters keep this script from matching itself.
if grep -rn 'set_nonblockin[g]' crates/serve/src; then
    echo "FAIL: a daemon socket is non-blocking again: acceptors block in accept() and are woken" >&2
    exit 1
fi
accept_loop=$(awk '/^fn accept_loop\(/,/^}/' crates/serve/src/daemon.rs)
if [ -z "$accept_loop" ]; then
    echo "FAIL: fn accept_loop not found in crates/serve/src/daemon.rs: update this gate" >&2
    exit 1
fi
if grep -n 'sleep(' <<<"$accept_loop"; then
    echo "FAIL: accept_loop sleeps: a request would wait for the next tick" >&2
    exit 1
fi

echo "== size ledger (results/loc.json) =="
target/release/loc --write . >/dev/null
python3 -m json.tool results/loc.json >/dev/null \
    || { echo "FAIL: results/loc.json is not valid JSON" >&2; exit 1; }

echo "verify: OK"
