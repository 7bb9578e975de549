GO ?= go

.PHONY: build test race bench benchdiff bench-baseline fuzz-smoke cover lint loc perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# The single list of gated benchmarks: `bench` runs them, `benchdiff`
# (which CI's bench-regression job calls) gates them and
# `bench-baseline` records them.
BENCH_GATED := ConstructScaling|ServeHTTP|PlannerPaths|SegmentedRebuild|RouterFanout|IngestSustained

bench:
	$(GO) test -run '^$$' -bench '$(BENCH_GATED)' -benchtime 100ms .

# Gate the benchmarks against the committed baseline (fails on >15%
# median regression; see scripts/benchdiff).
benchdiff:
	$(GO) run ./scripts/benchdiff -bench '$(BENCH_GATED)'

# Refresh BENCH_baseline.json after an intentional performance change.
# Run on the reference machine, then commit the updated baseline.
bench-baseline:
	$(GO) run ./scripts/benchdiff -bench '$(BENCH_GATED)' -update

# The single list of fuzz-smoke targets: CI's fuzz-smoke step runs
# `make fuzz-smoke` rather than repeating it.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadSynopsis -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz FuzzEngineQuery -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzPlannerBudget -fuzztime 10s ./internal/plan
	$(GO) test -run '^$$' -fuzz FuzzIngestMaintain -fuzztime 10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz FuzzQueryWire -fuzztime 10s ./internal/serve

# The single source of truth for the floor-gated package list: CI's
# coverage step runs `make cover` rather than repeating it.
cover:
	$(GO) test -short -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) run ./scripts/coverfloor -profile cover.out -floor 70 \
		rangeagg/internal/serve rangeagg/internal/oracle rangeagg/internal/codec \
		rangeagg/internal/wal rangeagg/internal/obs rangeagg/internal/plan \
		rangeagg/internal/segment rangeagg/internal/cluster \
		rangeagg/internal/reopt rangeagg/internal/ingest

lint:
	$(GO) vet ./...
	$(GO) run ./scripts/switchlint

# perfbench (the benchmark BENCHMARK.json runs) is a module of its own,
# so ./... leaves it out although it compiles against the engine, WAL
# and serving packages: vet, build and self-test it (~20 s).
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null . && $(GO) test -count=1 ./...

# Non-test Go lines of the root module (perfbench is a module of its
# own, so ./... leaves it out): the net-lines-removed figure changes
# report.
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' ./... | xargs cat | wc -l
