#!/usr/bin/env bash
# Tier-1 verification gate. Everything here runs offline: the workspace
# has no registry dependencies, so no network access is needed beyond a
# stock Rust toolchain.
#
#   ./ci.sh          # full gate: fmt, clippy, build, tests
#   ./ci.sh quick    # skip the release build (debug tests only)
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The library crates are pure functions of their configs: only
# `cse_core::env`, which binaries call from `main`, reads the environment.
echo "==> no environment reads in library crates outside crates/core/src/env.rs"
env_reads=$(grep -rnE 'env::vars?(_os)?\b|use std::env\b' --include='*.rs' \
    crates/{rng,lang,bytecode,vm,fuzz,core,reduce}/src | grep -v '^crates/core/src/env\.rs:' || true)
if [ -n "$env_reads" ]; then
    echo "$env_reads" >&2
    echo "error: library crates must not read the environment (use cse_core::env from main)" >&2
    exit 1
fi

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$mode" != "quick" ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test -q (tier-1: root crate)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

if [ "$mode" != "quick" ]; then
    echo "==> parallel-engine digest equality under --release"
    cargo test --release -q --test parallel_determinism

    # Perf smoke: a small campaign through the full bench — throughput,
    # per-stage breakdown, interpreter microbench, and the pruned-vs-
    # exhaustive plan-space digest cross-check (the bench exits non-zero
    # if pruning ever diverges). The JSON artifact is the same file a
    # full-size run produces, and each run appends a dated entry to
    # results/BENCH_trajectory.jsonl; the bench fails if serial
    # seeds_per_sec regresses >20% against the last committed entry for
    # the same workload shape.
    echo "==> perf smoke (bench_campaign -> results/BENCH_campaign.json)"
    mkdir -p results
    CSE_SEEDS=4 CSE_BENCH_OUT=results/BENCH_campaign.json \
        cargo run --release -q -p cse-bench --bin bench_campaign

    # The campaign benchmark is a package of its own (outside the
    # workspace), so no step above builds it; its self-test catches a
    # `crates/*` API change that breaks it.
    echo "==> campaign benchmark self-test (campaign_bench/, its own package)"
    cargo test --release -q --manifest-path campaign_bench/Cargo.toml

    echo "==> triage smoke (seeded-fault campaign; every incident reduced, deduped, classified)"
    cargo test --release -q --test triage chaos_campaign_triage_is_complete_and_job_count_invariant

    # Coverage smoke: the same seed budget under uniform sampling
    # (CSE_COVERAGE=off digests are byte-compatible with collect, so
    # collect doubles as the uniform reference) and under the feedback
    # scheduler. Guidance must strictly increase covered cells — this is
    # the subsystem's payoff gate, not just a does-it-run check.
    echo "==> coverage smoke (CSE_COVERAGE=guide must beat collect at equal budget)"
    collect_cells=$(CSE_COVERAGE=collect CSE_SEEDS=12 \
        cargo run --release -q --bin coverage | awk '/^cells /{print $2}')
    guide_cells=$(CSE_COVERAGE=guide CSE_SEEDS=12 \
        cargo run --release -q --bin coverage | awk '/^cells /{print $2}')
    echo "    collect: ${collect_cells} cells   guide: ${guide_cells} cells"
    if [ -z "$collect_cells" ] || [ -z "$guide_cells" ] \
        || [ "$guide_cells" -le "$collect_cells" ]; then
        echo "error: coverage guidance did not increase covered cells" >&2
        exit 1
    fi
fi

echo "==> OK"
