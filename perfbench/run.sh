#!/usr/bin/env bash
# Build gusdb and the benchmark program from this checkout's sources, then
# run one benchmark pass.  Every argument goes to the program:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# Build products go to _perfbench_build/, per-run scratch data to
# _perfbench_run/ (removed after each run), traces to _perfbench_out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release --build-dir _perfbench_build \
  ./bin/gusdb.exe ./perfbench/perfbench.exe 1>&2
exec _perfbench_build/default/perfbench/perfbench.exe \
  --gusdb _perfbench_build/default/bin/gusdb.exe "$@"
