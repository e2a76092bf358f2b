GO ?= go

.PHONY: ci fmt vet lint-extra test build loc bench bench-micro

## ci is the documented pre-merge check: formatting, vet and the full
## test suite under the race detector (the concurrency guarantees of
## engine.DB and sommelierd are enforced by -race tests;
## TestTypedAtomicsOnly holds every atomic to a typed one).
ci: fmt vet test

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

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

## bench regenerates the paper's evaluation: Tables II-III, Figures
## 6-9 and the ablations (slow; see also cmd/benchrunner). The service
## benchmark is bench/run.sh (bench/README.md).
bench:
	$(GO) test -bench=. -benchmem .

## bench-micro runs the operator, storage, wire-render, disk-tier
## promote and chunk-store hit microbenchmarks with allocation counts;
## compare against a baseline with benchstat.
bench-micro:
	$(GO) test -run='^$$' -bench='BenchmarkFilter|BenchmarkZoneSkip|BenchmarkHashJoin|BenchmarkGroupedAggregate|BenchmarkAggregateFold|BenchmarkJoinGroupBy' -benchmem ./internal/physical/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/storage/
	$(GO) test -run='^$$' -bench='BenchmarkRender' -benchmem ./internal/server/
	$(GO) test -run='^$$' -bench='BenchmarkPromote' -benchmem ./internal/cache/
	$(GO) test -run='^$$' -bench='BenchmarkAcquireHit' -benchmem ./internal/chunkstore/
