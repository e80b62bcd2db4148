#!/bin/sh
# Build the ledger from source in this checkout, then run one measurement:
#   sh ledger/run.sh --workload NAME --seed N --seconds T --trace 0|1
# Run it from the root of a full checkout; the last line it prints is the
# run's JSON result (see ledger/README.md).
set -eu
if [ ! -f dune-project ] || [ ! -d lib/dsim ] || [ ! -f ledger/dune ]; then
  echo "ledger/run.sh: run from the root of a full checkout (needs dune-project, lib/ and ledger/)" >&2
  exit 1
fi
# No shared build cache: everything the build writes stays in _build/.
DUNE_CACHE=disabled dune build --root . --profile release ./ledger/main.exe >&2
exec ./_build/default/ledger/main.exe "$@"
