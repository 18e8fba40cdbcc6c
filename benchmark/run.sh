#!/usr/bin/env bash
# The one command: lint and build the benchmark package, run every workload
# of BENCHMARK.json for its run_seconds untraced (end-to-end metrics) and, in
# the first set, traced (per-layer metrics), and print one table.
#
#   benchmark/run.sh [--sets N] [--seed S]
#
# --sets N repeats the untraced runs N times back to back on the same seed,
# alternating the workload order, and exits non-zero if the spread of any
# end-to-end metric over the sets (inter-quartile distance over the median)
# exceeds the metric's bound. Also non-zero: a failed output check, a failed
# operation, or an additive check beyond 15 %. For the same judgement on
# other inputs, run it again with another --seed.
set -euo pipefail
cd "$(dirname "$0")/.."

sets=1 seed=1
while [ $# -gt 0 ]; do
    case "$1" in
        --sets) sets=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        *) echo "unknown argument $1" >&2; exit 2 ;;
    esac
done
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# Root CI does not see this package, so its lints run here.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path $manifest --check
cargo clippy --offline --manifest-path $manifest --all-targets -- -D warnings
cargo build --release --offline --manifest-path $manifest
bin="$CARGO_TARGET_DIR/release/mfn-benchmark"

out=benchmark/out
rm -rf "$out" && mkdir -p "$out"
# A run that fails its checks exits non-zero after printing its result line;
# table.py reads the line and does the judging.
run() { # set workload trace file-stem
    "$bin" --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$3" \
        2>"$out/set$1.$2.$4.log" >"$out/set$1.$2.$4.json" || echo "set $1: $2 exited $?" >&2
}
for set in $(seq 1 "$sets"); do
    order=$workloads
    if [ $((set % 2)) = 0 ]; then order=$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' '); fi
    for w in $order; do
        echo "== set $set: $w" >&2
        run "$set" "$w" 0 e2e
        if [ "$set" = 1 ]; then run "$set" "$w" 1 layers; fi
    done
done
python3 benchmark/table.py BENCHMARK.json "$out" "$sets"
