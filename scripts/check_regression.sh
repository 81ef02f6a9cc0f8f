#!/bin/sh
# Benchmark regression gate: run the deterministic micro section of the
# bench harness and diff its snapshot against the committed baseline
# (BENCH_results.json) with `sft bench-diff`.
#
# Only the gates/paths metrics are gated, at threshold 0: the micro
# circuits are generated from fixed seeds, so their sizes are exactly
# reproducible and any drift is a real behaviour change. Wall times and
# speedups are machine-dependent and deliberately not gated here — with
# a few exceptions, each a determinism property rather than a timing one,
# and each required to be present and true (a section that did not run
# fails the gate):
#   - `speedups` and `kernels`: every parallel or word-parallel kernel is
#     bit-identical to its serial baseline;
#   - `incremental`: the production engine reproduces the reference full
#     walk bit-for-bit (`identical_results`), pops and re-enumerates less
#     than it and lands deferred splices in multi-splice groups (`gate_ok`,
#     `concurrent_commits` > 0) — DESIGN.md §13, §17;
#   - `idcache`: the persistent identification cache's determinism
#     contract (off = cold = warm bit-identity, warm-start disk hits, an
#     NPN class layer that strictly improves on raw keys, and a warm hit
#     rate at least the cold one — DESIGN.md §15);
#   - `sat_atpg`: no PODEM-aborted fault stays undecided after SAT
#     escalation (`escalation_ok`, DESIGN.md §14);
#   - `journal`: the decision journal's never-perturb contract (journaled
#     run bit-identical to plain, funnel invariant holds, no dropped
#     events — DESIGN.md §16), additionally exercised through the CLI
#     below.
#
# Usage: scripts/check_regression.sh [BASELINE]
# Exit:  0 no regression, 1 regression, 2 incomparable snapshots.
set -eu

cd "$(dirname "$0")/.."

baseline=${1:-BENCH_results.json}
if [ ! -f "$baseline" ]; then
    echo "check_regression: baseline $baseline not found" >&2
    exit 2
fi

# The persistent identification store must never be committed: it is a
# machine-local, append-only artifact (DESIGN.md §15).
if [ -n "$(git ls-files data/cache 2>/dev/null)" ]; then
    echo "check_regression: data/cache artifacts are committed; remove them" >&2
    exit 1
fi
if ! grep -q '^data/cache/$' .gitignore 2>/dev/null; then
    echo "check_regression: .gitignore must exclude data/cache/" >&2
    exit 1
fi

dune build bin/sft_cli.exe bench/main.exe

tmp=$(mktemp -t bench-smoke.XXXXXX.json)
trap 'rm -f "$tmp"' EXIT INT TERM

echo "check_regression: bench smoke run (--quick --only micro,kernels,incremental,idcache,sat_atpg,journal)..."
dune exec --no-build bench/main.exe -- \
    --quick --only micro,kernels,incremental,idcache,sat_atpg,journal --domains 2 --json "$tmp" > /dev/null

# The rows of one snapshot section, one JSON object per line.
rows() {
    sed -n "/^  \"$1\": \[/,/^  \]/p" "$tmp" | grep '^    {' || true
}

# require SECTION PATTERN: the section has rows and every row matches.
require() {
    r=$(rows "$1")
    if [ -z "$r" ]; then
        echo "check_regression: section $1 is missing from the snapshot" >&2
        exit 1
    fi
    if printf '%s\n' "$r" | grep -qv "$2"; then
        echo "check_regression: section $1 has a row failing $2" >&2
        exit 1
    fi
}

require speedups '"identical_results": true'
require kernels '"identical_results": true'
require incremental '"identical_results": true'
require incremental '"gate_ok": true'
require incremental '"concurrent_commits": [1-9]'
require idcache '"identical_results": true'
require idcache '"gate_ok": true'
require sat_atpg '"escalation_ok": true'
require journal '"identical_results": true'
require journal '"gate_ok": true'

# CLI journal gate (DESIGN.md §16): a journaled multi-domain optimize run
# must land the same netlist as a plain one, and `sft report` must accept
# the journal (it exits 1 on a funnel violation) with funnel_ok in its
# JSON document.
echo "check_regression: CLI journal bit-identity and report funnel..."
jdir=$(mktemp -d -t journal-gate.XXXXXX)
trap 'rm -f "$tmp"; rm -rf "$jdir"' EXIT INT TERM
dune exec --no-build bin/sft_cli.exe -- optimize test/metrics_smoke.bench \
    --domains 2 -o "$jdir/plain.bench" > /dev/null
dune exec --no-build bin/sft_cli.exe -- optimize test/metrics_smoke.bench \
    --domains 2 --journal "$jdir/run.journal" -o "$jdir/journaled.bench" > /dev/null
if ! cmp -s "$jdir/plain.bench" "$jdir/journaled.bench"; then
    echo "check_regression: --journal perturbed the optimize result" >&2
    exit 1
fi
dune exec --no-build bin/sft_cli.exe -- report "$jdir/run.journal" --json \
    > "$jdir/report.json"
if ! grep -q '"funnel_ok":true' "$jdir/report.json"; then
    echo "check_regression: journal report funnel violated (committed <= verified <= identified <= candidates)" >&2
    exit 1
fi

dune exec --no-build bin/sft_cli.exe -- bench-diff "$baseline" "$tmp" \
    --metrics gates,paths --threshold 0
