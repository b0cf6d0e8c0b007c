# Convenience targets for the multi-GPU OpenACC reproduction.

GO ?= go

.PHONY: all build vet lint test test-short cover cover-fastpath loc bench bench-quick bench-host phaseb-ab eval eval-json examples clean check invariants fuzz-smoke accvet trace-check loadtest-smoke

# Optional linters: used when present on PATH, skipped (with a pinned
# install hint) when absent — `make lint` must work in a hermetic
# checkout with only the Go toolchain.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

all: build vet test

# check is the pre-PR gate: lint (go vet plus the optional linters when
# installed), the invariants table's own tests (the fast gate: it fails
# first), the plain test suite, the race
# detector over the suite (the runtime launches kernels concurrently
# across simulated GPUs; -short skips the full-scale app inputs, which
# take ~10x longer under the detector), the trace golden/invariance
# gate, the accvet directive checks over the shipped examples and the
# audited random-program corpus, and a short fuzz smoke over the
# frontend fuzzer, the audited random-program fuzzer, the
# vet-vs-auditor cross-check fuzzer, the specialized-vs-interpreted
# differential fuzzer, the trace well-formedness fuzzer, the
# async-vs-sync schedule-equivalence fuzzer, the static-vs-dynamic
# dependence cross-check fuzzer, the transfer-pricing-vs-reference
# fuzzer and the accd request fuzzer.
check: lint
	$(MAKE) invariants
	$(GO) test ./...
	$(GO) test -race -short -timeout 1200s ./...
	$(MAKE) trace-check
	$(MAKE) bench-quick
	$(MAKE) loadtest-smoke
	$(MAKE) accvet
	$(MAKE) fuzz-smoke

# invariants runs exactly the tests DESIGN.md §6 names as pinning its
# rows — read out of the table's last column, so the table cannot name a
# test that is gone: a name `go test -list` does not find fails the
# target before anything runs. Fuzz targets run their seed corpus, the
# one benchmark a single iteration. The fast pre-commit gate.
invariants:
	@names=$$(awk -F'|' '/^## 6\. /{on=1} /^## 7\. /{on=0} on && /^\| [0-9]/{print $$5}' DESIGN.md | \
		grep -oE '`(Test|Fuzz|Benchmark)[A-Za-z0-9_]+`' | tr -d '`' | sort -u); \
	re="^($$(echo $$names | tr ' ' '|'))$$"; \
	have=$$($(GO) test -list "$$re" ./... | grep -E '^(Test|Fuzz|Benchmark)'); \
	for n in $$names; do \
		echo "$$have" | grep -qx "$$n" || { echo "invariants: DESIGN.md §6 names $$n, which no package has"; exit 1; }; \
	done; \
	echo "invariants: $$(echo $$names | wc -w) tests named by DESIGN.md §6"; \
	$(GO) test -run "$$re" -bench "$$re" -benchtime=1x ./internal/... ./cmd/...

# loadtest-smoke is the fast correctness pass over the accd load-test
# harness: a small concurrent run of the mixed corpus where every
# response code, cache verdict and phase invariant is asserted, plus
# the serve equivalence check (concurrent responses byte-identical to
# the serial baseline).
loadtest-smoke:
	$(GO) test -run 'TestLoadTestSmoke' ./internal/bench
	$(GO) test -run 'TestServeEquivalenceUnderLoad' ./internal/serve

# trace-check pins the observability layer: the committed golden
# Chrome traces (regenerate with -update-trace-goldens), the
# metrics-vs-report-vet cross-checks (including the multi-node
# ACCV007-vs-NIC-tag one), the structural overlap gates on
# the pipelined schedule, the report/byte invariance of tracing
# across option matrices, GOMAXPROCS=1, and repeated async runs, the
# NIC-lane discipline on cluster topologies, and the degenerate
# 1xN == N topology equivalence (arrays, reports and trace bytes).
trace-check:
	$(GO) test -run 'TestTraceGolden|TestTraceMetricsCrossCheck|TestMultiNodeTraceMetricsCrossCheck|TestAsyncOverlapObserved' ./internal/core
	$(GO) test -run 'TestTraceReportInvariance|TestTraceGOMAXPROCS1ByteStability|TestTraceByteStabilityStress|TestTraceStructureSeedCorpus|TestAsyncByteStabilityStress|TestMultiNodeTraceLanes|TestNodeLossKeepsTraceWellFormed|TestDegenerateTopologyEquivalence' ./internal/rt

# accvet runs the directive-verification pass the way CI consumes it:
# accc -vet must accept every known-good shipped program, and the
# golden/corpus tests pin its diagnostics (including the deliberately
# broken programs under examples/vet).
accvet:
	for f in examples/testdata/*.c; do $(GO) run ./cmd/accc -vet $$f || exit 1; done
	$(GO) test -run 'TestVetGoldenDiagnostics' ./internal/core
	$(GO) test -run 'TestVetCleanOnAuditedCorpus|TestVetCrossCheckSeedCorpus' ./internal/rt

fuzz-smoke:
	$(GO) test -fuzz=FuzzParseProgram -fuzztime=5s -run='^$$' ./internal/cc
	$(GO) test -fuzz=FuzzAuditedRandomPrograms -fuzztime=5s -run='^$$' ./internal/rt
	$(GO) test -fuzz=FuzzVetCrossCheck -fuzztime=5s -run='^$$' ./internal/rt
	$(GO) test -fuzz=FuzzSpecializedVsInterp -fuzztime=5s -run='^$$' ./internal/rt
	$(GO) test -fuzz=FuzzTraceWellFormed -fuzztime=5s -run='^$$' ./internal/rt
	$(GO) test -fuzz=FuzzAsyncVsSyncSchedule -fuzztime=5s -run='^$$' ./internal/rt
	$(GO) test -fuzz=FuzzDepCrossCheck -fuzztime=5s -run='^$$' ./internal/rt
	$(GO) test -fuzz=FuzzTransferTimeMatchesReference -fuzztime=5s -run='^$$' ./internal/sim
	$(GO) test -fuzz=FuzzServeRequest -fuzztime=5s -fuzzminimizetime=1s -run='^$$' ./internal/serve

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the static-analysis gate: go vet always runs, and any file
# gofmt would change fails it; staticcheck and govulncheck run only when
# their binaries are already installed (no network fetches from the
# build).
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would change:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

# cover-fastpath answers "which safety code of the Phase B fast path has no
# test ever run?": one whole-suite profile over every package (a block
# counts as covered when any test binary ran it), then the uncovered
# blocks of internal/ir/spec*.go and internal/rt/specexec.go, one per
# line with the source line they start at, leaving out blocks that only
# return an error or a rejection. Advisory: not part of `make check`; the
# wall-clock and allocation gates may fail under the instrumentation (they
# are listed, the profile is still whole).
cover-fastpath:
	$(GO) test -timeout 3600s -coverpkg=./internal/...,./cmd/...,. -coverprofile=cover-fastpath.out ./... | grep -E '^(--- FAIL|FAIL)' || true
	@awk 'NR > 1 && $$1 ~ /internal\/(ir\/spec[^\/]*|rt\/specexec)\.go:/ { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
	END { \
		for (k in n) { split(k, p, ":"); f = p[1]; sub("^accmulti/", "", f); tot[f] += n[k]; \
			if (!hit[k]) { unc[f] += n[k]; split(p[2], q, "."); at[f, q[1] + 0] = 1 } } \
		for (f in tot) { i = 0; open = 0; while ((getline line < f) > 0) { i++; \
			if (open && line !~ /return .*(err|Err|nil, "|false)/) { \
				sub(/^[ \t]+/, "", line); printf "%s:%d: %s\n", f, i, line } \
			open = ((f, i) in at) } \
			close(f) } \
		for (f in tot) printf "%s: %d of %d statements uncovered\n", f, unc[f], tot[f] \
	}' cover-fastpath.out | sort -t: -k1,1 -k2,2n

# loc prints the non-test Go lines per package, benchmark/ excluded: the
# figure every CHANGES.md entry quotes.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# The full benchmark matrix as testing.B benches (one per table/figure).
bench:
	$(GO) test -bench=. -benchmem ./...

# bench-quick is the host-performance regression gate: the steady-state
# allocation-budget assertions (loader paths, specialized launches, the
# whole replicated-ping-pong launch under the async schedule, and
# the tracing-disabled launch path, which must add zero allocations),
# the pipelined-scheduler speedup gate (>=1.2x on the halo-bound
# stencil, with report equivalence modulo time), the paper-app gate
# (Phase B specialized vs interpreter: KMEANS >=20x and MD >=7x on
# lockstep tiles, BFS >=3.1x with its edge loop as flat tiles,
# results verified both sides), the
# guarded-stencil gate (>=4x Phase-B
# on the boundary-guarded localaccess stencil, index-set split vs
# interpreter, results verified both sides), plus one iteration of
# each wall-clock gate benchmark (legacy-vs-optimized loader,
# replicated-write diff, plan resolution, and the Phase-B
# interpreter-vs-specialized pairs, the per-launch overhead of the
# replicated ping-pong under both schedules and the three paper apps
# whole, per kernel iteration — the ones to profile: go test ./internal/rt
# -run '^$' -bench 'LaunchOverhead|PhaseBApps' -cpuprofile cpu.out), the accd
# program-cache gate
# (warm-cache throughput >= 5x cold-cache on the mixed service
# corpus), and the accd equivalence gate (256-way concurrent responses
# bit-identical to serial, under the race detector). Cheap enough to
# run in every `make check`. The multi-node speedup gate holds the
# NIC-aware async schedule to >=1.2x over sync on the halo-bound
# 2-node stencil (report equivalence modulo time included).
bench-quick:
	$(GO) test -run 'TestSteadyStateAllocBudget|TestSpecLaunchSteadyStateAllocBudget|TestLaunchSteadyStateAllocBudget|TestTraceDisabledAllocBudget|TestPhaseBSpeedupGate|TestAsyncSpeedupGate|TestMultiNodeSpeedupGate|TestPaperAppSpeedupGate|TestGuardedStencilSpeedupGate' \
		-bench 'BenchmarkIteratedStencilLoader|BenchmarkReplicatedWriteDiff|BenchmarkLaunchPlanResolve|BenchmarkPhaseBSaxpy|BenchmarkPhaseBStencil|BenchmarkPhaseBCopy|BenchmarkPhaseBApps|BenchmarkPhaseBFlatOrRejected|BenchmarkLaunchOverhead' \
		-benchtime=1x -benchmem ./internal/rt
	$(GO) test -run 'TestLoadTestCacheGate' ./internal/bench
	$(GO) test -race -run 'TestServeEquivalenceUnderLoad|TestProgramReentrantUnderRace' ./internal/serve ./internal/core

# bench-host runs one workload of the host-time benchmark (benchmark/:
# apps_kernel, stencil_repl, stencil_dist, compile_cold, serve_mixed)
# the way the driver does, end-to-end metrics with tracing off; add
# ARGS='--trace 1' for the per-layer split. The runs append to
# benchmark/out/runs.jsonl; `go run ./benchmark compare a.jsonl b.jsonl`
# judges one set of runs against another.
W ?= apps_kernel
bench-host:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 20 --trace 0 $(ARGS)

# phaseb-ab compares the Phase B host time of BASE (a git revision) with
# the working tree: it extracts BASE with git archive into a temporary
# directory outside the checkout, builds the internal/rt test binaries of
# both, runs BENCH (default PhaseBApps, the paper apps; PhaseBStencil,
# PhaseBSaxpy and PhaseBCopy are the others) specialized on one processor N rounds,
# alternating which side runs first, and prints each benchmark's median
# ns per iteration (apps) or per op and their ratio.
BASE ?= HEAD
N ?= 6
BENCH ?= PhaseBApps
# PhaseBApps has a level per app: PhaseBApps/<app>/specialized.
BENCHRE = $(BENCH)/$(if $(filter PhaseBApps,$(BENCH)),.*/)specialized
phaseb-ab:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && mkdir "$$tmp/src" && \
	git archive $(BASE) | tar -x -C "$$tmp/src" && \
	(cd "$$tmp/src" && $(GO) test -c -o "$$tmp/base.test" ./internal/rt) && \
	$(GO) test -c -o "$$tmp/head.test" ./internal/rt && \
	for r in $$(seq $(N)); do \
		if [ $$((r % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			(cd internal/rt && "$$tmp/$$side.test" -test.run '^$$' -test.bench '$(BENCHRE)' \
				-test.cpu 1 -test.timeout 600s) | \
				awk -v s=$$side '/ns\/(iter|op)/ { n = $$1; sub(/^Benchmark/, "", n); sub(/\/specialized$$/, "", n); \
					for (i = NF; i >= 3; i--) if ($$i ~ /^ns\//) { print n, s, $$(i - 1); break } }'; \
		done; \
	done | sort -k1,1 -k2,2 -k3,3g | \
	awk '{ k = $$1 " " $$2; v[k, ++n[k]] = $$3 } \
		END { for (k in n) { m = n[k]; med[k] = m % 2 ? v[k, (m + 1) / 2] : (v[k, m / 2] + v[k, m / 2 + 1]) / 2 } \
			for (k in med) { split(k, p, " "); if (p[2] == "base") \
				printf "%-18s base %11.2f  head %11.2f ns  base/head %.3fx  (%d runs each)\n", p[1], med[k], med[p[1] " head"], med[k] / med[p[1] " head"], n[k] } }' | sort

# Regenerate the paper's evaluation (Tables I-II, Figs 7-9, ablations,
# cluster study) with result verification. -no-async keeps the
# reported times on the paper's bulk-synchronous schedule.
eval:
	$(GO) run ./cmd/accbench -no-async -verify all

eval-json:
	$(GO) run ./cmd/accbench -no-async -json all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/md
	$(GO) run ./examples/kmeans
	$(GO) run ./examples/bfs
	$(GO) run ./examples/stencil1d
	$(GO) run ./examples/ablation

clean:
	$(GO) clean ./...
