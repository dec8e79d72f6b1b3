#!/bin/sh
# Build the benchmark from source and run it, from the repository root:
#   bash bench/perf/run.sh --workload bank-burst --seed 11 --seconds 15 --trace 0
# Arguments pass through to perf.exe (see README.md).
exec dune exec --root . --display quiet bench/perf/perf.exe -- "$@"
