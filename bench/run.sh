#!/usr/bin/env bash
# Build the server (`cegcli`) and the harness (`cegbench`) in release mode
# into one target directory, then run the harness with the arguments given.
#   bash bench/run.sh                          every workload, end to end
#   bash bench/run.sh trace                    every workload, traced
#   bash bench/run.sh repeat 5                 spread table over 5 runs
#   bash bench/run.sh --smoke                  all workloads on g10k, 1 s phases
#   bash bench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; stdout carries only the harness's records.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --bin cegcli --target-dir "$target" >&2
cargo build --release --offline --manifest-path bench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/cegbench" "$@"
