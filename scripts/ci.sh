#!/usr/bin/env bash
# Offline-safe CI gate for BombDroid-rs.
#
#   scripts/ci.sh          # build + test + (if installed) clippy + fmt
#
# Everything runs with --offline: all external dependencies are vendored
# path crates under vendor/, so no registry access is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace --offline
run cargo test -q --workspace --offline

# The benchmark package is a workspace of its own that compiles against the
# crates by path, so the builds above never see it: a crate API change that
# breaks it would otherwise pass here and only fail at benchmark time.
run cargo build --release --offline --manifest-path perfbench/Cargo.toml
# Its test does a short traced run of every workload and checks each pinned
# reference (fuzz coverage fingerprints, session report digests), which no
# workspace test covers: a decoder change that renumbers decoded pcs or
# moves a `vm.ops.*` counter fails here first.
run cargo test --release --offline --manifest-path perfbench/Cargo.toml

# clippy/fmt are optional toolchain components; gate on availability so the
# script works on minimal rust installs.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint"
fi

if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all --check
else
    echo "==> cargo fmt not installed; skipping format check"
fi

# Observability smoke and metrics gate: one fast experiment writes
# metrics.json and flight.json (repro validates both schemas before
# writing and exits 1 on a failed rule or write), then the fresh metrics
# are diffed against the committed reference
# (scripts/metrics_reference.json, produced by the exact command below).
# Deterministic quantities — counter values, histogram counts — are
# bit-identical for any thread count, so any change to one, or any
# counter or histogram added or removed (e.g. a refactor that silently
# stops recording fleet.tasks or vm.instr_executed), fails here; regenerate
# the reference when the change is intentional. Wall-clock timings and
# gauges are informational only.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast table5
run cargo run -q --release --offline -p bombdroid-bench --bin metrics_diff -- \
    scripts/metrics_reference.json target/repro_output/metrics.json

# Guided-fuzzer smoke: a fixed-seed fast campaign (4 shards × 60 execs,
# seed PROTECT_BASE). repro validates guided_resilience.json before
# writing it and exits 1 if it fails: schema and field shapes, every
# reported bomb replay-validated (validated == found <= total_bombs), a
# strictly increasing exec axis with monotone bomb counts ending at
# `found`, and a single-trigger no-bogus `control` config that found at
# least one bomb. The curves are bit-identical for any BOMBDROID_THREADS
# value (pinned by the attacks determinism suite).
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast guided

# Population-simulator smoke: a fast two-scale sweep (10^3 + 10^4 devices,
# VM-backed sessions, seed PROTECT_BASE^0x509). repro validates
# population.json before writing it and exits 1 if it fails: strictly
# increasing scales with every session run, per-bomb trigger rates within
# the closed-form 3σ + slack bands, a weighted mean in the paper's band,
# a monotone latency CDF, live metric memory bounded independent of
# device count, at least 100 outer-trigger sessions at the largest scale,
# and one mid-run kill + checkpoint + resume cycle with a byte-identical
# report. Results are bit-identical for any BOMBDROID_THREADS value.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast population

# Protect-as-a-service smoke: a fixed-seed job mix (four flagships, each
# submitted twice, plus one over-capacity probe) drained at two worker
# threads. repro validates service.json before writing it and exits 1 if
# it fails: every signed package verified, results in submission order,
# single-flight accounting (hits + protects == jobs, protects == distinct
# artifacts), cache_hit set exactly on re-requests, the overflow probe
# shed, and a serial control run bit-identical to the parallel drain.
run env BOMBDROID_OBS=full BOMBDROID_THREADS=2 \
    cargo run -q --release --offline -p bombdroid-bench --bin repro -- --fast service

# Perf smoke: the hot-path harness must run end to end. perf validates
# its BENCH_pipeline.json document before writing it (schema version,
# mode, a non-empty list of uniquely named benches, positive iterations,
# p50 <= p95) and fails otherwise; each --compare below validates both
# inputs again. --fast
# numbers are not comparison-grade; this validates the plumbing, not the
# performance.
run env BOMBDROID_OBS=off \
    cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --fast --out target/perf_smoke.json

# Perf comparison against the committed full-mode baseline, in two tiers.
#
# Hard gate: the vm/ benchmarks (session boot, fork, event driving,
# profiling) are the execution-engine contract this repo optimizes — a
# regression there fails CI. --fast numbers on shared hardware are noisy,
# so the gate uses a generous 75% threshold: it won't trip on jitter, only
# on an engine that actually got slower.
run cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --compare BENCH_pipeline.json target/perf_smoke.json \
    --threshold 75 --filter vm/

# Hard gate: the pipeline/ benchmarks (protect, plan, arm) carry the
# batch-crypto and protection-cache wins — a regression there fails CI.
# Same generous threshold as the vm/ gate: jitter passes, real
# regressions don't.
run cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --compare BENCH_pipeline.json target/perf_smoke.json \
    --threshold 75 --filter pipeline/

# Advisory tier: everything else only warns (never fails CI); regenerate
# BENCH_pipeline.json with a full-mode run on quiet hardware before
# trusting a delta.
if cargo run -q --release --offline -p bombdroid-bench --bin perf -- \
    --compare BENCH_pipeline.json target/perf_smoke.json --threshold 50; then
    echo "==> perf compare: within threshold (advisory)"
else
    echo "==> perf compare: WARNING regression vs committed baseline (advisory only)"
fi

echo "==> ci green"
