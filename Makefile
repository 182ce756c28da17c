# SmoothOperator reproduction — common workflows.

GO ?= go

.PHONY: all check build vet lint lint-annotate lint-json test test-race race cover bench bench-parallel bench-smoke bench-e2e bench-e2e-smoke bench-pairs experiments-diff digests-diff smoke soak soak-short plan-soak-short frag-sweep frag-sweep-short multidim-sweep multidim-sweep-short experiments ablations extensions fuzz fuzz-short loc clean

all: check

# check is the pre-merge gate: build, vet, the project linters, the full test
# suite, the same suite again under the race detector (the parallel pipeline
# must be data-race-free and bit-identical at any worker count), the smoothopd
# replay smoke, the short fault-injection soak, the concurrent what-if planner
# soak, the short online-placement fragmentation sweep, and the end-to-end
# benchmark's smoke run (the "results unchanged" oracle).
check: build vet lint test test-race smoke soak-short plan-soak-short frag-sweep-short multidim-sweep-short bench-e2e-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs smoothoplint, the project's own static-analysis suite enforcing
# the determinism, parallel-safety and concurrency contracts (see DESIGN.md).
lint:
	$(GO) run ./cmd/smoothoplint ./...

# lint-annotate renders the same findings as GitHub Actions workflow
# commands, so CI surfaces them as inline PR annotations at the offending
# lines. Exit status matches `make lint`.
lint-annotate:
	$(GO) run ./cmd/smoothoplint -format=github ./...

# lint-json writes the findings as a machine-readable artifact
# (smoothoplint.json) for tooling to diff; byte-stable across runs and
# worker counts.
lint-json:
	$(GO) run ./cmd/smoothoplint -format=json ./... > smoothoplint.json

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

race: test-race

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

bench-parallel:
	$(GO) test -run=NONE -bench='Parallel|Serial' -benchmem .

# bench-smoke executes every benchmark exactly once so they cannot bit-rot;
# CI runs this on every push.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# bench-e2e runs the repo's benchmark (BENCHMARK.json, bench/README.md): four
# replay-driven workloads through a real core.Runtime behind the /v1 API,
# end-to-end metrics plus the per-layer metrics of a traced run.
bench-e2e:
	bash bench/run.sh --workload all --trace 2

# bench-e2e-smoke is the same at ≈200 instances for two seconds per phase. It
# exits non-zero on any output-check violation (residents ≠ ledger, breakers,
# capacity overcommit, a same-seed rerun landing elsewhere) or any mismatch
# between an operation's result and its re-enactment from the exported layer
# calls — so a refactor that changes a swap, a leaf, a tree byte or a
# fragmentation row fails here.
bench-e2e-smoke:
	bash bench/run.sh --workload all --size smoke --trace 2 --seconds 2

# bench-pairs is how a timing claim is measured (choosing-metrics §8): the
# benchmark run alternately on a parent commit and on this checkout, e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=admit_churn_10k METRIC=op_p50_ms
# prints each side's median and quartiles and the change's win count.
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(WORKLOAD) $(METRIC) $(PAIRS)

# experiments-diff is the "results unchanged" oracle for the offline
# studies: `experiments -all` built from a parent commit and from this
# checkout, at default flags and at -scale 2 -step 30m -seed 2 with CSVs,
# must print identical bytes, e.g.
#   make experiments-diff PARENT=HEAD~1
# It needs a parent ref, so it stays out of check.
experiments-diff:
	bash scripts/experiments-diff.sh $(PARENT)

# digests-diff is the "no decision changed" oracle for the runtime: the
# benchmark built from a parent commit and from this checkout, every
# workload at --seconds 0 --trace 0 on seeds 1..SEEDS, must list identical
# digests, sum_leaf_peaks_w and placed_pct, e.g.
#   make digests-diff PARENT=HEAD~1 SEEDS=10
# It needs a parent ref, so it stays out of check.
SEEDS ?= 10
digests-diff:
	bash scripts/digests-diff.sh $(PARENT) $(SEEDS)

# smoke drives smoothopd's run() end to end twice — replay, flag validation,
# and a scrape of GET /metrics asserting deterministic counters.
smoke:
	$(GO) test -run 'TestSmoke|TestValidateFlags' -count=1 ./cmd/smoothopd

# soak replays weeks of telemetry twice — once clean, once through the seeded
# fault injector — and asserts the faulted Σ-leaf-peaks trajectory stays
# within the drift bound while the degradation machinery (quarantine,
# fallback traces, ingest retries, emergency capping) absorbs the faults.
soak:
	$(GO) run ./cmd/smoothopd -dc DC1 -scale 2 -weeks 6 -faults heavy -soak -soak-drift 5

# soak-short is the CI-sized soak: light faults over four weeks at scale 1,
# run twice in-process to pin bit-identical reports and counter deltas.
soak-short:
	$(GO) test -run 'TestSoak|TestValidateFaultFlags' -count=1 ./cmd/smoothopd

# plan-soak-short replays a daemon and fires concurrent /v1/plan planners at
# it — a mix of valid, invalid and load-shedding queries with a deliberately
# tiny in-flight limit. Asserts zero envelope-less responses and a bounded
# p99 latency.
plan-soak-short:
	$(GO) test -run 'TestPlanSoakShort|TestValidatePlanFlags' -count=1 ./cmd/smoothopd

# frag-sweep replays an arrival stream under each online placement policy and
# reports the power-fragmentation rate as load grows (FGD Fig. 7(a) analogue).
frag-sweep:
	$(GO) run ./cmd/experiments -frag-sweep

# frag-sweep-short is the CI-sized sweep: bit-identical at workers {1,8} and
# the asynchrony-aware policy must beat random and best-fit at high load.
frag-sweep-short:
	$(GO) test -run 'TestFragSweepShort' -count=1 ./internal/experiments

# multidim-sweep replays an arrival stream with multi-resource demands under
# the power-only and capacity-aware policies and reports stranded leaves.
multidim-sweep:
	$(GO) run ./cmd/experiments -multidim-sweep

# multidim-sweep-short is the CI-sized gate: bit-identical at workers {1,8}
# and the capacity-aware policy must strand strictly fewer leaves than
# power-only at equal admissions and equal-or-better Σ leaf peaks.
multidim-sweep-short:
	$(GO) test -run 'TestMultiDimSweepShort' -count=1 ./internal/experiments

experiments:
	$(GO) run ./cmd/experiments -all

ablations:
	$(GO) run ./cmd/experiments -ablations

extensions:
	$(GO) run ./cmd/experiments -extensions

# FUZZ_TARGETS lists every fuzz target as package-dir:FuzzName; both fuzz
# runs below walk it, and a test in internal/analysis fails when a
# func FuzzX(*testing.F) anywhere in the module is missing from it.
FUZZ_TARGETS = \
	internal/timeseries:FuzzReadCSV \
	internal/timeseries:FuzzSeriesJSON \
	internal/powertree:FuzzLoadTree \
	internal/powertree:FuzzAggregatorAppendMatchesFresh \
	internal/tracestore:FuzzLoad \
	internal/tracestore:FuzzSnapshotQuality \
	internal/tracestore:FuzzAppendRunMatchesAppend \
	internal/cluster:FuzzBalancedKMeansMatchesOracle \
	internal/score:FuzzDifferentialBound \
	internal/score:FuzzDifferentialBelow \
	internal/core:FuzzPlanDecoder \
	internal/core:FuzzAdmitDecoder \
	internal/placement:FuzzOnlineAdmitMatchesExhaustive \
	internal/placement:FuzzRemapMatchesReference

# run_fuzz runs every FUZZ_TARGETS entry for $(1), each -fuzz pattern
# anchored so one target never matches another by prefix.
define run_fuzz
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t for $(1)"; \
		$(GO) test -run=XXX -fuzz="^$${t#*:}\$$" -fuzztime=$(1) ./$${t%%:*}/; \
	done
endef

fuzz:
	$(call run_fuzz,10s)

# fuzz-short is a bounded smoke pass over every fuzz target, cheap enough
# for CI and pre-commit runs.
fuzz-short:
	$(call run_fuzz,5s)

# loc counts the non-test Go lines under internal/ and cmd/, the figure a
# simplification is measured by.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

clean:
	rm -rf internal/*/testdata/fuzz .bench_build
