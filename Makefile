# InstantCheck reproduction — convenience targets.

GO ?= go

.PHONY: all test race race-farm bench bench-smoke obs-smoke fleet-smoke explore-smoke exploreeff build table1 table2 figures everything cover fmt vet lint

all: test lint

# Build every command, the checkfarm daemon included, into ./bin.
build:
	$(GO) build -o bin/ ./cmd/instantcheck ./cmd/statediff ./cmd/icvet ./cmd/checkd ./cmd/checkworker

test:
	$(GO) test ./...

lint:
	$(GO) run ./cmd/icvet ./...
	$(GO) run ./cmd/icvet race ./...

race:
	$(GO) test -race ./...

# The farm's invariants (parallel == sequential, crash resume) under the
# race detector — the CI subset.
race-farm:
	$(GO) test -race ./internal/farm ./internal/core

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over every benchmark: proves the benchmark code still
# compiles and runs. This is the CI smoke step — it measures nothing. The
# epoch fast-path pin (TestDetectionRunFastPaths) proves the detector
# takes its O(1) same-epoch short-circuits on a real run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run='TestDetectionRunFastPaths' .

# Observability smoke gate: boot a real checkd, run one small campaign,
# scrape /metrics from the live daemon and fail on malformed exposition or
# missing key series (see cmd/obssmoke).
obs-smoke:
	$(GO) run ./cmd/obssmoke

# Fleet smoke gate: boot a real checkd -fleet plus four checkworker
# processes, run the full 17-app campaign, SIGKILL one worker mid-shard,
# and require every report byte-identical to a plain single-node daemon's
# (see cmd/fleetsmoke).
fleet-smoke:
	$(GO) run ./cmd/fleetsmoke

# Exploration smoke gate: boot a real checkd, submit one explore job per
# strategy hunting a seeded Figure 7 bug, require every search to find its
# divergence within budget, and lint the daemon's per-strategy /metrics
# series (see cmd/exploresmoke).
explore-smoke:
	$(GO) run ./cmd/exploresmoke

# The exploration-efficiency experiment: median runs-to-detect per
# strategy on the three seeded Figure 7 bugs at equal budget (the table in
# EXPERIMENTS.md, "Exploration efficiency").
exploreeff:
	$(GO) run ./cmd/instantcheck exploreeff -small -runs 40 -threads 4 -input 1

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
