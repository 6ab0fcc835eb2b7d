GO ?= go

.PHONY: all check build test race cover bench bench-json bench-diff bench-smoke profile experiments faults obs spill server chaos yannakakis batch loc fuzz fuzz-smoke fmt vet clean

all: check

check: build vet test race fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark baseline: BENCH_<date>.json with name,
# iterations, ns/op, B/op and allocs/op per benchmark. BENCHTIME keeps
# the snapshot quick; raise it for a low-noise baseline.
BENCHTIME ?= 100ms
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_$$(date +%F).json

# Advisory regression gate: compare the newest committed baseline against
# a fresh run, flagging >20% growth in ns/op or allocs/op. Exits 1 on a
# regression; CI runs it with continue-on-error so noise never blocks.
bench-diff:
	@base=$$(ls BENCH_*.json | sort | tail -1) && \
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-new.json && \
	$(GO) run ./cmd/benchjson -diff $$base /tmp/bench-new.json

# Served end-to-end benchmark smoke: perfbench is a nested module that
# the root ./... never builds, so this keeps an API change from breaking
# the benchmark unnoticed. Its tests build the binary and drive every
# workload briefly.
bench-smoke:
	cd perfbench && $(GO) test ./...

# Continuous-profiling snapshot: bench the root package (go test only
# accepts -cpuprofile/-memprofile for a single package) under CPU and
# allocation profiling, regenerate the dated BENCH_*.json across ./...,
# and file a top-N attribution report next to it. PROFILE_<date>.json is
# the hit list for the vectorized-execution work (ROADMAP open item 1).
profile:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) \
		-cpuprofile=cpu.prof -memprofile=mem.prof .
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_$$(date +%F).json
	$(GO) run ./cmd/benchjson -cpu cpu.prof -mem mem.prof -top 20 \
		-o PROFILE_$$(date +%F).json
	@echo "profile: attribution report in PROFILE_$$(date +%F).json"

experiments:
	$(GO) run ./cmd/experiments

# Fault-injection and resource-governance suite; -count=2 shakes out
# state reuse across re-Open (operators must fully reset).
faults:
	$(GO) test -count=2 -run 'Fault|ErrorPath|Cancelled|Deadline|MemoryBudget|Degradation|Governor|Leak|Collect' ./internal/exec ./internal/resource ./internal/optimizer

# Observability suite: the metrics registry and tracer, the span/stats
# consistency property, concurrent scraping during a parallel join, and
# the shell/CLI monitoring surfaces — under the race detector, -count=2
# for state reuse.
obs:
	$(GO) test -race -count=2 ./internal/obs ./internal/exec -run 'Span|Scrape|Counter|Histogram|Gauge|Registry|Trace|Ring|Slow|Server|Health|Metrics'
	$(GO) test -race -count=2 ./cmd/ojshell ./cmd/reorder ./cmd/benchjson

# Spill-to-disk suite: the grace hash join, the spilled nested-loop join,
# semijoin filter and generalized outerjoin, the metamorphic and
# fault-injection spill oracles, and the failed-Open/trip-during-Open
# governor regressions —
# under the race detector, -count=2 for state reuse across re-Open.
# Runs with TMPDIR pointed at a scratch dir and fails if any ojspill-*
# run file survives the suite.
spill:
	@dir=$$(mktemp -d) && \
	TMPDIR=$$dir $(GO) test -race -count=2 -run 'Spill|FailedOpen|TripDuring|Grace' ./internal/exec ./internal/exec/spill ./internal/optimizer && \
	leaked=$$(find $$dir -name 'ojspill-*' | wc -l) && \
	rm -rf $$dir && \
	if [ $$leaked -ne 0 ]; then echo "spill: $$leaked run files leaked"; exit 1; fi

# Concurrent query server suite: admission control (FIFO order,
# oversized/queue-full shedding, cancel-while-queued, never-overcommit
# stress), the TCP protocol end to end, the workload driver, and the
# 16-client mixed-traffic soak (prepared hits, cold misses, governor
# trips, spilling, cancellations against one shared core) with tracer
# reconciliation and goroutine/temp-file leak checks — under the race
# detector, -count=2 for state reuse across server restarts.
server:
	$(GO) test -race -count=2 ./internal/server ./internal/workload ./cmd/ojserver

# Chaos suite: the fault-injection wrapper's determinism and framing
# contracts, connection hygiene (bounded lines, idle timeout,
# kill-conn-mid-execute), panic isolation, load shedding, graceful
# drain, the retrying client, and the seeded 16-client chaos soak
# (10% per-I/O fault rate with injected executor panics; goodput,
# bag-correctness, tracer reconciliation and leak checks) — under the
# race detector, -count=2 for state reuse. The soak seed is fixed in
# chaos_soak_test.go, so a failure replays byte-for-byte.
chaos:
	$(GO) test -race -count=2 ./internal/chaos
	$(GO) test -race -count=2 -run 'Chaos|Panic|MaxLine|IdleTimeout|KillConn|Shedding|Drain|BusyQuery' ./internal/server ./internal/exec
	$(GO) test -race -count=2 ./internal/workload

# Yannakakis acyclic fast-path suite: join-tree construction and the
# outerjoin-aware reducer program, the semijoin-reduce operator (both
# paths, spill, null keys, reduction counters), the 200-instance
# metamorphic oracle against the DP and fixed-order execution on
# dangling-heavy data (with the intermediate-cardinality guarantee
# checked on every instance), strategy dispatch/fallback/auto, plan-
# cache keying, and the dangling workload generator — under the race
# detector, -count=2 for state reuse across re-Open. The spill leak
# check mirrors the spill suite's.
yannakakis:
	@dir=$$(mktemp -d) && \
	TMPDIR=$$dir $(GO) test -race -count=2 -run 'Yannakakis|JoinTree|ReducerProgram|SemiReduce|Strategy|Dangling' \
		./internal/graph ./internal/exec ./internal/optimizer ./internal/workload && \
	leaked=$$(find $$dir -name 'ojspill-*' | wc -l) && \
	rm -rf $$dir && \
	if [ $$leaked -ne 0 ]; then echo "yannakakis: $$leaked run files leaked"; exit 1; fi

# Batch-execution suite: the batch layer's unit tests (null bitmap,
# batch sizes, trip outcomes, stale-left-batch regression, stream mode), the registry-wide ownership detector (producers that scribble
# over the rows and batches they handed out + scribbling callers), and
# the 200-instance metamorphic oracles against the algebra reference —
# under the race detector, -count=2 for state reuse across re-Open, with
# the spill-leak check (the batch joins spill on a memory trip).
batch:
	@dir=$$(mktemp -d) && \
	TMPDIR=$$dir $(GO) test -race -count=2 -run 'Batch|Ownership|Metamorphic' \
		./internal/exec ./internal/optimizer && \
	leaked=$$(find $$dir -name 'ojspill-*' | wc -l) && \
	rm -rf $$dir && \
	if [ $$leaked -ne 0 ]; then echo "batch: $$leaked run files leaked"; exit 1; fi

# Code size: non-test Go lines in the executor (spill/ included) and in
# the whole repository, leaving out the nested benchmark module and its
# build directory. These are the numbers ROADMAP.md tracks.
loc:
	@echo "internal/exec: $$(cat $$(find internal/exec -name '*.go' ! -name '*_test.go') | wc -l)"
	@echo "repo: $$(cat $$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*') | wc -l)"

# Each fuzz target runs for a short budget; extend FUZZTIME for real runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz='FuzzExpr$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzPred$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzExprGraph$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -fuzz='FuzzFingerprint$$' -fuzztime=$(FUZZTIME) ./internal/plancache
	$(GO) test -fuzz='FuzzReadCSV$$' -fuzztime=$(FUZZTIME) ./internal/storage
	$(GO) test -fuzz='FuzzTableLiteral$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzValue$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzBytes$$' -fuzztime=$(FUZZTIME) ./internal/parse
	$(GO) test -fuzz='FuzzProtocol$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -fuzz='FuzzJoinTree$$' -fuzztime=$(FUZZTIME) ./internal/optimizer

# Quick fuzz smoke for check/CI: a few seconds each on the pipeline
# targets (parser front half, plan-cache fingerprint invariance, the
# full protocol dispatch surface) catches gross regressions without the
# full fuzz budget.
SMOKETIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='FuzzParse$$' -fuzztime=$(SMOKETIME) ./internal/parse
	$(GO) test -run='^$$' -fuzz='FuzzFingerprint$$' -fuzztime=$(SMOKETIME) ./internal/plancache
	$(GO) test -run='^$$' -fuzz='FuzzProtocol$$' -fuzztime=$(SMOKETIME) ./internal/server
	$(GO) test -run='^$$' -fuzz='FuzzJoinTree$$' -fuzztime=$(SMOKETIME) ./internal/optimizer

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt cpu.prof mem.prof freejoin.test
