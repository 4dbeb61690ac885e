#!/bin/sh
# Build the benchmark from source in this checkout, then run it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-read --seed 3 --seconds 10 --trace 0
#
# The build uses the release profile and no shared dune cache, so it
# reads and writes only inside the checkout (under _build/).
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d examples/scenarios ]; then
  echo "perfbench: not a full checkout of the repository" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --profile release ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
