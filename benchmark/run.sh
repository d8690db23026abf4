#!/usr/bin/env bash
# Build the benchmark harness (which builds the emc binary it drives), then
# run the harness. Run from the repository root:
#   bash benchmark/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
set -euo pipefail
dune build --root . benchmark/run.exe 1>&2
# Pin the harness and every process it starts to one CPU. In a closed loop
# each request is handed from one process to another; on a small virtual
# machine a hand-off to another, idle CPU waits for that CPU to wake, and
# that wait swings with the host's load from run to run.
cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//' || true)
if [ -n "$cpus" ]; then
  exec taskset -c "${cpus##*[,-]}" ./_build/default/benchmark/run.exe "$@"
fi
exec ./_build/default/benchmark/run.exe "$@"
