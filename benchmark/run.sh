#!/bin/sh
# Builds the benchmark offline and runs every workload:
#   benchmark/run.sh [--seed N] [--seconds N] [--trace] [--quick] [--repeat K]
# Works from a clean checkout; nothing is fetched.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --all "$@"
