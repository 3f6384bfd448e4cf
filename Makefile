# Tier-1 verification (see ROADMAP.md). The pipeline is concurrent
# end-to-end, so vet and the race detector are part of the baseline gate;
# cover enforces the per-package statement-coverage floor.
.PHONY: verify fmt build test race vet bench bench-smoke cover fuzz-smoke servtest storetest acc acc-baseline benchtest

verify: fmt build vet test race cover acc servtest storetest benchtest

# Fails, listing the files, when any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
		if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The 386 cross-build keeps the module compiling for a 32-bit int. It
# checks the build only: the tests stay 64-bit-only (correct's
# order_test.go pools offsets of 1<<31 and 1<<46).
build:
	go build ./...
	GOARCH=386 go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The second pass runs core's scheduler tests at 1 and 4 procs, so the one
# work pool races at 4 whatever the machine's CPU count.
race:
	go test -race ./...
	go test -race -cpu 1,4 -run 'Parallel|Cancel|Workers|Deterministic|Trace' ./internal/core/

# The repo benchmark (bench/, run by bench/run.sh) is its own Go module,
# so the root go test ./... never builds it. Its tests include the
# layer-by-layer replay of the pipeline, which must keep matching core.
benchtest:
	cd bench && go vet ./... && go test ./...

# Benchmark-regression gate: run the full suite, compare against the
# latest committed BENCH_<date>.json (>15% B/op or allocs/op regression
# fails; so does ns/op, when the baseline's CPU count, GOARCH and Go
# version match this machine's), and write today's results as the new
# baseline.
BENCH_DATE = $(shell date -u +%Y-%m-%d)
bench:
	go test -run='^$$' -bench=. -benchmem . | tee /tmp/bench.out
	go run ./cmd/benchdiff -in /tmp/bench.out -dir . -write BENCH_$(BENCH_DATE).json

# CI smoke variant: single iteration per benchmark, report-only (noisy
# shared runners must not fail the build), baseline never overwritten.
bench-smoke:
	PROBEDIS_ALLOC_REPORT=/tmp/alloc-report.jsonl \
		go test -run='^$$' -bench=. -benchtime=1x -benchmem . | tee /tmp/bench-smoke.out
	go run ./cmd/benchdiff -in /tmp/bench-smoke.out -dir . -report-only

# Accuracy-regression gate: score the core engine on the pinned,
# content-hashed corpus (eval.PinnedManifest) and compare against the
# latest committed ACC_<date>.json. Accuracy is deterministic on a pinned
# corpus, so the tolerance is float noise only — any real drop fails.
ACC_DATE = $(shell date -u +%Y-%m-%d)
acc:
	go run ./cmd/accdiff -dir .

# Re-record the accuracy baseline (after an intentional accuracy change
# or a corpus version bump). Commit the new ACC_<date>.json.
acc-baseline:
	go run ./cmd/accdiff -dir . -report-only -write ACC_$(ACC_DATE).json

# Statement-coverage floor for every internal/ package. Prints the
# per-package report and fails if any package is below $(COVER_MIN)%;
# the ground-truth layers (synth, eval) carry higher floors — the
# corpus generator and scorer must themselves be well-tested for the
# accuracy gate to mean anything. The same run writes the profile CI
# uploads to /tmp/coverage.out, and fails if any package's tests fail.
COVER_MIN = 70
COVER_MIN_SYNTH = 90
COVER_MIN_EVAL = 80
COVER_MIN_STORE = 80
cover:
	@go test -coverprofile=/tmp/coverage.out ./internal/... | awk '\
		/^FAIL/ { bad = 1; print } \
		/coverage:/ { \
			pct = ""; \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1); \
			sub(/%$$/, "", pct); \
			floor = $(COVER_MIN); \
			if ($$2 == "probedis/internal/synth") floor = $(COVER_MIN_SYNTH); \
			if ($$2 == "probedis/internal/eval") floor = $(COVER_MIN_EVAL); \
			if ($$2 == "probedis/internal/store") floor = $(COVER_MIN_STORE); \
			printf "%-32s %6.1f%% (floor %d%%)\n", $$2, pct, floor; \
			if (pct + 0 < floor) { bad = 1; printf "FAIL %s below %d%% floor\n", $$2, floor } \
		} \
		END { exit bad }'

# Short coverage-guided fuzz passes (CI smoke): the whole pipeline, the
# ELF parser, whose zero-copy aliasing serving relies on,
# then the retraction worklist against the full-scan reference fixpoint,
# the corrector's radix-ordered commit records against SortHints,
# viability's sweep and worklist against the naive fixpoint at fuzzed
# section bases, the fused statistical walk against the two-walk scores
# and hints, the anchor-site hint analyses against their full walks,
# the probing data-pattern scans against their byte loops, the scan
# kernel's packed records against the full decoder, and the graph's
# wrapped address and delta arithmetic near the top of the address space.
fuzz-smoke:
	go test -fuzz=FuzzPipeline -fuzztime=30s .
	go test -run '^$$' -fuzz=FuzzParse -fuzztime=10s ./internal/elfx
	go test -run '^$$' -fuzz=FuzzRetractMatchesReference -fuzztime=10s ./internal/correct
	go test -run '^$$' -fuzz=FuzzCommitOrderMatchesSortHints -fuzztime=10s ./internal/correct
	go test -run '^$$' -fuzz=FuzzViabilityMatchesNaive -fuzztime=10s ./internal/analysis
	go test -run '^$$' -fuzz=FuzzStatRecordsMatchStatHints -fuzztime=10s ./internal/analysis
	go test -run '^$$' -fuzz=FuzzAnchoredMatchesReference -fuzztime=10s ./internal/analysis
	go test -run '^$$' -fuzz=FuzzDataPatternsMatchReference -fuzztime=10s ./internal/stats
	go test -run '^$$' -fuzz=FuzzScanMatchesDecode -fuzztime=10s ./internal/x86
	go test -run '^$$' -fuzz=FuzzWrapGraph -fuzztime=10s ./internal/superset

# Chaos/load harness against the real serving stack (internal/serve)
# over a real loopback listener: mixed hostile workloads under -race,
# run twice to catch order-dependent state. The serve package's own
# tests (flight joins, leader cancellation and re-election, shedding,
# deadlines) get the same two passes under -race. PROBEDIS_LEAK_REPORT
# receives a goroutine stack dump if a leak check fails.
servtest:
	PROBEDIS_LEAK_REPORT=/tmp/servtest-leak.txt \
		go test -race -count=2 -timeout=5m ./internal/serve ./internal/servtest

# Persistent result store under fault injection (torn writes, truncated
# entries, bit flips, crash-before-rename), run twice under -race to
# catch order-dependent state. PROBEDIS_QUARANTINE_REPORT receives a
# description of quarantined entries if a corruption check fails.
storetest:
	PROBEDIS_QUARANTINE_REPORT=/tmp/store-quarantine.txt \
		go test -race -count=2 -timeout=5m ./internal/store
