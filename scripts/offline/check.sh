#!/bin/bash
# The repository's gate. Every cargo call passes --offline, so a registry
# crate that creeps back in fails here, as it does in CI.
#   scripts/offline/check.sh        # check formatting and the API docs, build
#                                   # every leg, print BUILD OK
#   scripts/offline/check.sh --run  # run them, then the examples, the golden,
#                                   # trace and bench gates and the yardstick's
#                                   # self-test, print ALL TESTS OK
set -euo pipefail
cd "$(dirname "$0")/../.."
NORUN=--no-run
[ "${1:-}" = --run ] && NORUN=
step() { echo "== $*"; "$@"; }
step cargo fmt --all --check
step env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
step cargo build --release --offline
step cargo test -q --offline $NORUN
step cargo test -q --offline -p pdm-model --features uring --lib $NORUN
step cargo test -q --offline -p pdm-model -p pdm-cli --features block-checksums --lib $NORUN
step cargo test -q --offline -p pdm-integration --features block-checksums --test fault_matrix \
  --test fault_injection --test records --test checkpoint_resume $NORUN
[ -z "$NORUN" ] || { echo "BUILD OK"; exit 0; }
for ex in io_overlap quickstart; do step cargo run -q --release --offline -p pdm-integration --example $ex; done
BIN="${CARGO_TARGET_DIR:-target}/release"
for mode in "" "--overlap on" "--key tagged" "--key str24"; do
  step python3 scripts/check_golden.py --binary "$BIN/pdmsort" --sort-args="$mode"
done
W="$(mktemp -d)"
trap 'rm -rf "$W"' EXIT
step "$BIN/pdmsort" gen 262144 "$W/in.keys" --dist permutation --seed 7
step "$BIN/pdmsort" sort "$W/in.keys" "$W/out.keys" --storage async-file --overlap on \
  --scratch "$W/scratch" --trace-out "$W/trace.json"
step "$BIN/pdmsort" verify "$W/out.keys"
step python3 scripts/check_trace.py "$W/trace.json" --disks 4
step "$BIN/pdm-bench" --quick --out "$W/bench.json" --overlap-out "$W/overlap.json"
step python3 scripts/check_bench.py --current "$W/bench.json" --overlap "$W/overlap.json"
step bash crates/pdm-e2e/run.sh --selftest
echo "ALL TESTS OK"
