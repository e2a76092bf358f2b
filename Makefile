GO ?= go

.PHONY: ci fmt vet lint lint-extra test build loc bench bench-json bench-micro

## ci is the documented pre-merge check: formatting, vet, the
## ownership-protocol lint, and the full test suite under the race
## detector (the concurrency guarantees of engine.DB and sommelierd
## are enforced by -race tests).
ci: fmt vet lint test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## vet also type-checks the pooldebug build, so the stack-recording
## pool accounting cannot rot between uses.
vet:
	$(GO) vet ./...
	$(GO) vet -tags pooldebug ./...

## lint builds sommelierlint (the go/analysis vettool proving the
## pooled-memory ownership protocol: poolown, selalias, releasecheck,
## atomicguard) and runs it over the whole module via go vet. See the
## "Static analysis & the ownership protocol" section of
## PERFORMANCE.md.
lint:
	$(GO) build -o bin/sommelierlint ./cmd/sommelierlint
	$(GO) vet -vettool=$(abspath bin/sommelierlint) ./...

## lint-extra layers on analyzers that need golang.org/x/tools
## (network to fetch); CI runs it, offline checkouts can skip it.
lint-extra:
	$(GO) run golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@latest ./...

test:
	$(GO) test -race ./...

build:
	$(GO) build ./...

## loc prints the non-test, non-testdata Go lines of every internal/*
## package and their total: the size ROADMAP tracks per PR. The last
## line counts the lines of physical and expr that name a concrete
## storage column or builder type (`x.(*storage.T)`, `case *storage.T`):
## the number ROADMAP says column shapes must not grow.
loc:
	@for d in internal/*/; do \
		printf '%6d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)" "$$d"; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'
	@printf 'typeswitches physical+expr %d\n' "$$(find internal/physical internal/expr -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -c -E '\.\(\*storage\.[A-Za-z0-9]+\)|case \*storage\.')"

## bench regenerates the paper's evaluation tables plus the
## concurrent-load sweep (slow; see also cmd/benchrunner).
bench:
	$(GO) test -bench=. -benchmem .

## bench-json refreshes BENCH_parallel.json, the machine-readable
## headline metrics (lazy T4 hot ms, lazy QPS at 1/4/16 clients with
## scaling ratios, allocs/op of the filter/join/group-by
## microbenchmarks, and the parallel-execution section: join/group-by
## speedups at DOP = GOMAXPROCS), plus BENCH_plancache.json (compile_us
## cold vs cache-hit, plan-cache hit rate, prepared-vs-direct QPS) and
## BENCH_memory.json (micro allocs/op + bytes/op on the pooled path,
## heap-in-use and GC pauses over the 48-query bag, hot-query p50/p99
## latency at 1/16 clients) and BENCH_streaming.json (time-to-first-row
## and peak heap streaming vs materialized, the LIMIT-10 full-scan
## first-row speedup, and top-k pushdown vs Sort+Limit) and
## BENCH_robustness.json (cold mixed-bag p50/p99 clean vs fault-armed
## vs 1% injected faults, degraded-result rate, chunks skipped) and
## BENCH_overload.json (goodput and admitted p50/p99 at 1x/2x/4x
## offered load — the run FAILS unless the admission controller holds
## the acceptance bounds, see RELIABILITY.md "Overload & admission").
## BENCH_selection.json is the frozen pre-parallelism baseline — do not
## overwrite it. BENCH_coldstart.json runs at a larger scale factor so
## the cold-start archive tax dominates fixed process overheads.
bench-json:
	$(GO) run ./cmd/benchrunner -sf 1 -basedays 2 -samples 4000 -json BENCH_parallel.json
	@cat BENCH_parallel.json
	$(GO) run ./cmd/benchrunner -sf 1 -basedays 2 -samples 4000 -plancache-json BENCH_plancache.json
	@cat BENCH_plancache.json
	$(GO) run ./cmd/benchrunner -sf 1 -basedays 2 -samples 4000 -memory-json BENCH_memory.json
	@cat BENCH_memory.json
	$(GO) run ./cmd/benchrunner -sf 1 -basedays 2 -samples 4000 -streaming-json BENCH_streaming.json
	@cat BENCH_streaming.json
	$(GO) run ./cmd/benchrunner -sf 1 -basedays 2 -samples 4000 -robustness-json BENCH_robustness.json
	@cat BENCH_robustness.json
	$(GO) run ./cmd/benchrunner -sf 1 -basedays 2 -samples 4000 -overload-json BENCH_overload.json
	@cat BENCH_overload.json
	$(GO) run ./cmd/benchrunner -sf 3 -basedays 2 -samples 60000 -coldstart-json BENCH_coldstart.json
	@cat BENCH_coldstart.json

## bench-micro runs the operator, storage, wire-render and disk-tier
## promote microbenchmarks with allocation counts; compare against a baseline
## with benchstat.
bench-micro:
	$(GO) test -run='^$$' -bench='BenchmarkFilter|BenchmarkZoneSkip|BenchmarkHashJoin|BenchmarkGroupedAggregate' -benchmem ./internal/physical/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/storage/
	$(GO) test -run='^$$' -bench='BenchmarkRender' -benchmem ./internal/server/
	$(GO) test -run='^$$' -bench='BenchmarkPromote' -benchmem ./internal/cache/
