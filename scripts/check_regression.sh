#!/bin/sh
# Benchmark regression gate: rerun the bench harness at the committed
# record's scope (--quick --only-circuits irs1423,irs5378, every section)
# and diff its snapshot against the baseline (BENCH_results.json) with
# `sft bench-diff`, which fails closed (DESIGN.md §8, §11):
#   - every gate a section declares must be present and true in every row:
#     the CEC proofs, the incremental, idcache and journal bit-identity
#     flags, and SAT escalation leaving no fault undecided;
#   - every section, row and exact key of the baseline (or of the new
#     snapshot) must be in the new snapshot, unchanged: Tables 1-7's "ours"
#     rows, the CEC proofs' solver decisions and conflicts, and in
#     `sat_atpg` PODEM's verdict counts, its decisions and backtracks
#     (`podem_decisions`, `podem_backtracks`) and the escalation's solver
#     conflicts and propagations;
#   - the generated inputs' gates and paths must not grow (threshold 0).
# Wall times are machine-dependent and not gated. A CLI journal gate
# follows the bench run.
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

dune build bin/sft_cli.exe bench/main.exe

tmp=$(mktemp -t bench-record.XXXXXX.json)
jdir=$(mktemp -d -t journal-gate.XXXXXX)
trap 'rm -f "$tmp"; rm -rf "$jdir"' EXIT INT TERM

echo "check_regression: bench run at the record's scope (--quick --only-circuits irs1423,irs5378)..."
dune exec --no-build bench/main.exe -- \
    --quick --only-circuits irs1423,irs5378 --domains 2 --json "$tmp" > /dev/null

# CLI journal gate (DESIGN.md §16): a journaled multi-domain optimize run
# must land the same netlist as a plain one, and `sft report` must accept
# the journal (it exits 1 on a funnel violation) with funnel_ok in its
# JSON document.
echo "check_regression: CLI journal bit-identity and report funnel..."
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
