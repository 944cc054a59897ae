#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--workload NAME] [--out DIR]
#       every workload (or the one named): the end-to-end run and the
#       per-layer run, each in a fresh process; writes out/results.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run, as the driver asks for it; last stdout line is the result
#   benchmark/run.sh --aa          two passes of the suite must agree
#   benchmark/run.sh --calibrate   ten seeds per workload; writes the bounds
#
# Build output goes to $CARGO_TARGET_DIR if set, else benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/opt-benchmark" --root "$root" "$@"
