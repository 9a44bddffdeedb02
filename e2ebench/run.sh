#!/bin/sh
# Build the end-to-end benchmark from source and run it.
#
#   sh e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root (or anywhere: it changes there first).
# The build uses the release profile in its own build directory,
# .bench_build, with the dune cache off so nothing is written outside
# the tree. All arguments go to e2e.exe; see e2ebench/README.md.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --profile release --build-dir .bench_build --cache=disabled \
  --display quiet ./e2ebench/e2e.exe 1>&2
exec ./.bench_build/default/e2ebench/e2e.exe "$@"
