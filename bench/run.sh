#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds smoothbench from source into
# .bench_build/ inside the checkout (Go's build cache goes there too, so
# nothing is written outside it) and runs it with the driver's arguments:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# In a directory without the repository's sources the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
# The commit is stamped into result files when the checkout is a repository;
# where the VCS cannot be queried, build without the stamp rather than fail.
go build -o "$build/smoothbench" ./bench/cmd/smoothbench 2>/dev/null ||
	go build -buildvcs=false -o "$build/smoothbench" ./bench/cmd/smoothbench
exec "$build/smoothbench" "$@"
