#!/usr/bin/env bash
# Builds the benchmark (release) and runs it; every argument goes to the
# `atm-benchmark` binary (see `atm-benchmark --help` or README.md).
#
#   benchmark/run.sh                         all four workloads, both passes
#   benchmark/run.sh --workload flood --seed 2 --out DIR
#   benchmark/run.sh --smoke                 shape only, a few seconds
#   benchmark/run.sh compare DIR_A DIR_B
#   benchmark/run.sh validate DIR/result-flood.json
#
# A driver runs it from the repository root as
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# and reads the last line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
# Results and traces go to "$here/out" unless --out says otherwise.
exec "$target/release/atm-benchmark" "$@"
