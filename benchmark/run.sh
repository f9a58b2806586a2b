#!/usr/bin/env bash
# Builds the benchmark (a no-op when it is fresh) and runs it.
#
#   bash benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
#   bash benchmark/run.sh compare <a.jsonl> <b.jsonl>
#   bash benchmark/run.sh manifest
#
# The last line of a run's standard output is its result object; cargo's
# own output goes to standard error. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2

# The run is pinned to one CPU (the first this process may use). A live
# group is six threads that hand every message from one to the next; spread
# over the two vCPUs of a shared host, every hand-off wakes an idle vCPU,
# and how long that takes is the host's business: the same code then moves
# 10 % from one quarter of an hour to the next. On one CPU the hand-offs stay
# in its caches and the numbers hold within 2-3 % even beside a neighbour
# that thrashes memory (README, "one CPU"). The simulator is one thread
# anyway; pinned it just never migrates.
pin=()
if command -v taskset >/dev/null; then
  while read -r key value; do
    if [[ $key == Cpus_allowed_list: ]]; then
      pin=(taskset -c "${value%%[-,]*}")
    fi
  done </proc/self/status
fi
exec ${pin[@]+"${pin[@]}"} "${CARGO_TARGET_DIR:-benchmark/target}/release/gcs-benchmark" "$@"
