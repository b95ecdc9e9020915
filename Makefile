# InstantCheck reproduction — convenience targets.

GO ?= go

.PHONY: all test race bench bench-smoke smoke exploreeff build table1 table2 figures everything cover fmt vet lint

all: test lint

# Build every command, the checkfarm daemon included, into ./bin.
build:
	$(GO) build -o bin/ ./cmd/instantcheck ./cmd/icvet ./cmd/checkd ./cmd/checkworker

test:
	$(GO) test ./...

lint:
	$(GO) run ./cmd/icvet ./...
	$(GO) run ./cmd/icvet race ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over every benchmark: proves the benchmark code still
# compiles and runs. This is the CI smoke step — it measures nothing. The
# epoch fast-path pin (TestDetectionRunFastPaths) proves the detector
# takes its O(1) same-epoch short-circuits on a real run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run='TestDetectionRunFastPaths' .

# Smoke gates over real checkd/checkworker processes, the three cmd/smoke
# scenarios in one run that builds the binaries once (see its package
# doc): obs lints /metrics after a small campaign; explore requires every
# search strategy to find its seeded Figure 7 bug within budget; fleet
# SIGKILLs a worker mid-campaign and requires every report byte-identical
# to a single-node daemon's. CI runs this target.
smoke:
	$(GO) run ./cmd/smoke obs explore fleet

# The exploration-efficiency experiment: median runs-to-detect per
# strategy on the three seeded Figure 7 bugs at equal budget (the table in
# EXPERIMENTS.md, "Exploration efficiency").
exploreeff:
	$(GO) run ./cmd/instantcheck exploreeff -small -input 1

table1:
	$(GO) run ./cmd/instantcheck table1

table2:
	$(GO) run ./cmd/instantcheck table2

figures:
	$(GO) run ./cmd/instantcheck fig5
	$(GO) run ./cmd/instantcheck fig6
	$(GO) run ./cmd/instantcheck fig8

everything:
	$(GO) run ./cmd/instantcheck all

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...
