#!/usr/bin/env bash
# Build the socket benchmark from the checkout's sources, then run it.
# Run from the root of a checkout; every argument passes through:
#   bash sockbench/run.sh --workload stream-64 --seed 1 --seconds 10 --trace 0
#   bash sockbench/run.sh --self-test
# Build output goes to stderr, so the report's last stdout line stays the
# JSON result.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib/rt ]; then
  echo "sockbench: $root is not a full checkout (no dune-project or lib/rt)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./sockbench/sockbench.exe 1>&2
exec ./_build/default/sockbench/sockbench.exe "$@"
