# Local targets mirroring the CI jobs in .github/workflows/ci.yml, so
# local runs and CI stay in lockstep.

GO ?= go

.PHONY: all build test race vet fmt fmt-check bench bench-smoke profile staticcheck fuzz-smoke crashtest replicatest examples cover pairs loc exports ci

all: build

build:
	$(GO) build ./...

# The benchmark harness is a nested module (benchmark/go.mod) that
# compiles against internal/, so ./... does not reach it: vet and test it
# here, or a change under internal/ can break it unnoticed.
test:
	$(GO) test ./...
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# The race detector runs on every package under internal/ whose code or
# tests import sync, sync/atomic, or the engine — whose instances,
# plan caches and lazily indexed inputs concurrent callers share.
# Derived, so a new concurrent package joins without anyone remembering
# to list it; CI runs this same target.
RACE_IMPORTS := sync|sync/atomic|repro/internal/engine
RACE_PKGS = $(shell $(GO) list -f '{{.ImportPath}} {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./internal/... \
	| grep -E ' ($(RACE_IMPORTS))( |$$)' | cut -d' ' -f1)
race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

# Full benchmark sweep (slow): every experiment series.
bench:
	$(GO) test -run '^$$' -bench . .

# The CI smoke variant: one iteration of every benchmark the regex
# 'E1|E5' matches (E1, E5, E10–E12, E14 and E16), a quick experiment
# run, and the allocs/op of a tiny pass, the join loop, a maintained
# Γ-chain update, an inflationary and a stratified distance fixpoint,
# the key table's probes in both layouts and a sorted read
# (Relation.Tuples) of each layout and of a range view.
bench-smoke:
	$(GO) test -run '^$$' -bench 'E1|E5' -benchtime 1x . | tee bench-smoke.txt
	$(GO) run ./cmd/bench -quick -exp E1 | tee -a bench-smoke.txt
	$(GO) test -run '^$$' -bench 'TinyPass|JoinAllocs|GammaChainUpdate|StrataUpdateSCC|WellFoundedBuild|InflationaryDistance|StratifiedDistance|TableProbe|RelationTuples' -benchmem -benchtime 200x ./internal/engine ./internal/incr ./internal/semantics ./internal/relation | tee -a bench-smoke.txt

# CPU + allocation profiles of the hot evaluation path (the E8/E10
# series, which evaluate on the calling goroutine, so there is no
# contention to profile), written to profiles/, with a top summary
# printed for each — so future perf PRs start from data, not guesses.
# Inspect interactively with: go tool pprof profiles/repro.test profiles/cpu.pprof
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'E8Inflationary|E10Distance' -benchtime 500ms \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof \
		-o profiles/repro.test .
	$(GO) tool pprof -top -nodecount 20 profiles/repro.test profiles/cpu.pprof
	$(GO) tool pprof -top -nodecount 20 -sample_index=alloc_space profiles/repro.test profiles/mem.pprof

# Static analysis beyond go vet; pinned so local runs and CI agree.
STATICCHECK_VERSION ?= 2025.1.1
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# The alternating-pair protocol a speed claim is checked by (see
# benchmark/README.md and scripts/pairs): N runs of one benchmark
# workload on BASE and N on the working tree, one pair at a time, the
# side that goes first alternating; prints each end-to-end metric's
# median [q1, q3] per side and the change's wins.  WORKLOAD=all runs
# the four workloads in turn and ends with the no-regression table: one
# row per workload and gated metric with its bound from BENCHMARK.json
# and a verdict (improved / within bound / unresolved / worse).  BASE is
# exported with `git archive` into .bench_build/pairs/base, and each
# side builds under its own .bench_build as benchmark/run.sh always does.
#	make pairs BASE=HEAD~1 WORKLOAD=serve-wf N=10 SEED=1
#	make pairs BASE=HEAD~1 WORKLOAD=all N=10
BASE ?= HEAD~1
N ?= 10
SEED ?= 1
pairs:
	@test -n "$(WORKLOAD)" || { echo "usage: make pairs BASE=<ref> WORKLOAD=<name>|all [N=10] [SEED=1]" >&2; exit 2; }
	rm -rf .bench_build/pairs/base && mkdir -p .bench_build/pairs/base
	git archive $(BASE) | tar -x -C .bench_build/pairs/base
	$(GO) run ./scripts/pairs -base .bench_build/pairs/base -change . -workload $(WORKLOAD) -n $(N) -seed $(SEED)

# 30 seconds of native fuzzing per target: the parser round-trip
# invariants, the magic rewrite's stratifiable, constant-free output,
# the WAL and snapshot decoders on arbitrary bytes, relations and
# their views under random operations against a map model, and
# maintained programs under random updates against wforacle.
# Seed corpora live under testdata/fuzz and also run as plain tests.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParser$$' -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzFacts$$' -fuzztime $(FUZZTIME) ./internal/parser
	$(GO) test -run '^$$' -fuzz '^FuzzMagicRewrite$$' -fuzztime $(FUZZTIME) ./internal/magic
	$(GO) test -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzRelation$$' -fuzztime $(FUZZTIME) ./internal/relation
	$(GO) test -run '^$$' -fuzz '^FuzzMaintain$$' -fuzztime $(FUZZTIME) ./internal/incr

# The durability kill harness: spawn the daemon with a data dir,
# kill -9 at random points, restart, and diff every relation against a
# from-scratch recompute over the surviving snapshot + WAL.
CRASHES ?= 24
crashtest:
	$(GO) run ./scripts/crashtest -crashes $(CRASHES) -fsync always

# The replication kill harness: leader + follower daemons, mid-stream
# leader kill -9, convergence oracle, retention pinning, promotion, and
# follower restart catch-up.
replicatest:
	$(GO) run ./scripts/replicatest -fsync always

# Run every program under examples/: each exits non-zero on an error,
# and most also check their answers.  Stops at the first failure.
examples:
	@set -e; for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null; done

# Statement coverage with the recorded floor (the total measured when
# the gate was introduced, minus noise margin): PRs may not shed tests.
# The gate reads the total line `go tool cover -func` prints, and fails
# when it is missing or below the floor.
COVER_MIN ?= 78.5
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) ' \
		/^total:/ { pct = $$NF + 0; found = 1; print } \
		END { \
			if (!found) { print "cover: no total line" > "/dev/stderr"; exit 1 } \
			if (pct < min) { printf "cover: coverage %.1f%% is below the floor %.1f%%\n", pct, min > "/dev/stderr"; exit 1 } \
		}'

# Non-test Go lines: every line of every .go file not named *_test.go,
# one row per internal/, cmd/ and scripts/ directory (counting the
# directories below it, so scripts/internal is one row), then the total
# over the tree except benchmark/ (a nested module) and hidden
# directories such as .bench_build/.  ROADMAP's size criteria cite
# these counts.
loc:
	@for d in internal/*/ cmd/*/ scripts/*/; do \
		printf '%7d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | wc -l) $${d%/}; \
	done
	@printf '%7d  total outside benchmark/\n' \
		$$(find . -path ./benchmark -prune -o -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)

# Exported functions and methods under internal/ that no non-test file
# of this module or of benchmark/ calls (benchmark/*_test.go counts as
# a caller): each must be listed with its reason in
# scripts/exports/keep.txt, and each listed name must still be found.
# Type-checks the tree from source with go/types; no download.
exports:
	$(GO) run ./scripts/exports

# Hermetic mirror of CI: every job that needs no network.  staticcheck
# (downloads the pinned tool) is the one network-using CI job; run it
# explicitly when online.
ci: vet fmt-check build test examples race bench-smoke cover fuzz-smoke exports crashtest replicatest
