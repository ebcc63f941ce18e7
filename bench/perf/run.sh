#!/usr/bin/env bash
# Builds the benchmark and the daemon binary it drives, then runs one
# workload; run it from the root of a checkout:
#   bash bench/perf/run.sh --workload W --seed S --seconds N --trace 0|1
# dune's shared cache stays off, so everything the build writes lands in
# ./_build.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perf: run from the root of a full checkout (dune-project, lib/, bin/ not found)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe ./bin/syno_cli.exe >&2
exec ./_build/default/bench/perf/perf.exe run "$@"
