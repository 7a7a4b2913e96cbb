#!/usr/bin/env bash
# Same-host timing A/B of the repository benchmark (perfbench/) between a
# base revision and the current checkout.
#
#   scripts/perf_ab.sh BASE_REV
#
# Builds perfbench at BASE_REV in a temporary git worktree under
# .bench_build/ (with its own target directory) and at the current
# checkout. Then, for every workload BENCHMARK.json lists, it runs ten
# base/candidate pairs at seeds 1..10 for BENCHMARK.json's run_seconds
# each, alternating which side runs first, so drift in host speed falls
# on both sides alike. `perfbench compare` judges the two sets against the
# bounds in BENCHMARK.json, and its verdict is the exit status: 0 when no
# end-to-end metric is worse than its bound. A candidate run that reports
# failed operations fails the A/B as well. The run records stay in
# .bench_build/ab/{base,cand}.txt; the worktree is removed on exit.
#
# Run it for any change that claims "same speed" or "faster". It takes
# about 35 minutes for the two gated workloads at 45 s per run.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/perf_ab.sh BASE_REV" >&2
    exit 2
fi
base_rev=$(git rev-parse --verify "$1^{commit}")
root=$PWD
build=$root/.bench_build
worktree=$build/ab-base
out=$build/ab

remove_worktree() {
    git worktree remove --force "$worktree" 2>/dev/null || rm -rf "$worktree"
    git worktree prune
}
remove_worktree
trap remove_worktree EXIT
mkdir -p "$out"

echo "==> building perfbench at base ${base_rev:0:12}"
git worktree add --quiet --detach "$worktree" "$base_rev"
CARGO_TARGET_DIR=$build/target-base cargo build --release --offline --quiet \
    --manifest-path "$worktree/perfbench/Cargo.toml"
echo "==> building perfbench at the current checkout"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

base_bin=$build/target-base/release/perfbench
cand_bin=$root/perfbench/target/release/perfbench
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)

: >"$out/base.txt"
: >"$out/cand.txt"
for workload in $workloads; do
    for seed in $(seq 1 10); do
        if [ $((seed % 2)) -eq 1 ]; then sides="base cand"; else sides="cand base"; fi
        for side in $sides; do
            if [ "$side" = base ]; then bin=$base_bin; else bin=$cand_bin; fi
            echo "==> $workload seed $seed $side"
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace 0 >>"$out/$side.txt"
        done
    done
done

failed=$(grep -c '^perfbench-record .*"correct": false' "$out/cand.txt" || true)
if [ "$failed" -ne 0 ]; then
    echo "==> $failed candidate run(s) reported failed operations" >&2
    exit 1
fi
"$cand_bin" compare "$out/base.txt" "$out/cand.txt" --benchmark BENCHMARK.json
