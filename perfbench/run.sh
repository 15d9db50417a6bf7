#!/bin/sh
# Build fds and the benchmark from this checkout, then run it:
#
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Build output goes to stderr and
# into .bench_build; run files go into .bench_run.
set -u
if [ ! -f dune-project ] || [ ! -f bin/fds.ml ] || [ ! -f perfbench/fdsbench.ml ]; then
  echo "perfbench: not the root of an fdbs checkout (fds sources not found)" >&2
  exit 2
fi
build=.bench_build
if ! dune build --root . --cache=disabled --build-dir "$build" \
  ./bin/fds.exe ./perfbench/fdsbench.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec "$build/default/perfbench/fdsbench.exe" --fds "$build/default/bin/fds.exe" "$@"
