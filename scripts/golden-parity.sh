#!/usr/bin/env bash
# Cross-commit bit-identity gate. Builds `sigctl` from this checkout's
# working tree and from <rev> (checked out in a temporary git worktree),
# each side with its own CARGO_TARGET_DIR. Each side trains its own `ci`
# models into its own directory; the two model directories must be
# identical (`cmp` per file). Then both sides run the same `sigctl
# golden` matrix and the outputs must be byte-identical (`diff -r`):
#
#   * c17, c499, c1355 x nor-only, native x seeds 1-8
#   * --compare on c17 and c499, seeds 1-2
#   * --edit on c17 (input 1) and on c1355 (input d5)
#   * --runs 3 on c17
#
# A change that claims to be bit-identical (a faster search, a cached
# prediction, a new kernel) must pass this against its base commit.
#
# Usage: scripts/golden-parity.sh <rev>
#   rev — the commit to compare against (CI passes the merge-base)
#
# Exit status: 0 identical, 1 a model file or an output differs.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
rev=${1:?usage: scripts/golden-parity.sh <rev>}
base_commit=$(git rev-parse --verify "$rev^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/golden-parity.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/base" "$base_commit"

# side name -> source tree
declare -A src=([base]="$work/base" [head]="$root")

for side in base head; do
    echo "building sigctl ($side: ${src[$side]})" >&2
    CARGO_TARGET_DIR="$work/target-$side" cargo build --offline --release --quiet \
        --manifest-path "${src[$side]}/Cargo.toml" -p sigserve --bin sigctl
    mkdir -p "$work/models-$side" "$work/out-$side"
done

# golden <side> <output name> [sim flags...]
golden() {
    local side=$1 name=$2
    shift 2
    "$work/target-$side/release/sigctl" golden --models ci \
        --models-dir "$work/models-$side" --no-timing "$@" \
        > "$work/out-$side/$name.json"
}

# Training: the first golden per library trains and caches the models.
for side in base head; do
    for library in nor-only native; do
        golden "$side" "train-$library" --circuit c17 --library "$library" --seed 1
    done
done
models=0
for f in "$work"/models-head/*; do
    name=$(basename "$f")
    cmp "$work/models-base/$name" "$f"
    models=$((models + 1))
done
[ "$(ls "$work/models-base" | wc -l)" -eq "$models" ]
echo "model files identical: $models" >&2

for side in base head; do
    rm -f "$work/out-$side"/train-*.json
    for circuit in c17 c499 c1355; do
        for library in nor-only native; do
            for seed in 1 2 3 4 5 6 7 8; do
                golden "$side" "$circuit-$library-s$seed" \
                    --circuit "$circuit" --library "$library" --seed "$seed"
            done
        done
    done
    for circuit in c17 c499; do
        for seed in 1 2; do
            golden "$side" "compare-$circuit-s$seed" \
                --circuit "$circuit" --seed "$seed" --compare
        done
    done
    golden "$side" edit-c17 --circuit c17 --seed 5 --transitions 3 \
        --edit "1=1,2e-10,3.5e-10"
    golden "$side" edit-c1355 --circuit c1355 --seed 5 --transitions 3 \
        --edit "d5=0,1e-10,3e-10"
    golden "$side" runs3-c17 --circuit c17 --seed 40 --transitions 3 --runs 3
done

diff -r "$work/out-base" "$work/out-head"
outputs=$(ls "$work/out-head" | wc -l)
echo "golden outputs byte-identical: $outputs (base $base_commit)"
