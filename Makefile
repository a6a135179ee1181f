# TANGO temporal middleware — build / verify targets.

GO ?= go

# Fuzz smoke budget per target (ci runs each fuzzer this long).
FUZZTIME ?= 10s

.PHONY: all build fmt vet lint lint-report test race fuzz chaos crash load bench-smoke bench-json bench-pairs tangobench-smoke loc ci clean

# Benchmark report written by bench-json. The default is git-ignored
# scratch; archive a run with an explicit BENCHOUT=BENCH_<n>.json.
BENCHOUT ?= .bench_build/bench.json

all: ci

build:
	$(GO) build ./...

# fmt fails, naming the files, when gofmt would change any tracked Go
# file.
fmt:
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs every project analyzer (DESIGN.md §4c lists them and the
# mutant each one alone catches) over the whole tree in one serial,
# uncached pass; the stderr summary prints the finding count and the
# elapsed time. Exit status 1 means findings, 2 a failed run.
lint:
	$(GO) run ./cmd/tangolint ./...

# lint-report is the ci form: same gate (a finding fails the build),
# but the machine-readable report is published to lint.json either
# way — stdout is redirected before the exit status is checked.
lint-report:
	$(GO) run ./cmd/tangolint -json ./... > lint.json

# test is tier-1 at four GOMAXPROCS widths: the middleware is
# sequential, but each T^M cursor's read-ahead goroutine, the retry
# path and the server run beside the consumer, and a lifecycle bug
# there can hide behind a one-core machine.
test:
	$(GO) test -cpu 1,2,4,8 ./...

race:
	$(GO) test -race ./...

# fuzz smoke-runs the parser fuzz targets, the fault-schedule decoder,
# the wire decoders (frame, request and reply envelope), the WAL
# decoder, the block decoder (heap pages, wire batches, spill runs),
# its conjunct filter (against the compiled eval predicate) and the
# row sort (against the comparison sort it replaced) for
# FUZZTIME each, seeded from the evaluation workload. Any crasher is
# written to the package's testdata/fuzz corpus and replays under
# plain `go test`.
fuzz:
	$(GO) test ./internal/sqlparser/ -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tsql/ -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/fault/ -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeRequest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire/ -run='^$$' -fuzz=FuzzDecodeReply -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/storage/ -run='^$$' -fuzz=FuzzWALDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/types/ -run='^$$' -fuzz=FuzzBlockDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/types/ -run='^$$' -fuzz=FuzzBlockFilter -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/types/ -run='^$$' -fuzz=FuzzSortTuples -fuzztime=$(FUZZTIME)

# chaos runs the seeded fault-injection sweep (every seed query under
# drop/stall/partial schedules at GOMAXPROCS 1 and 4, plus the
# 8-session concurrent sweep sharing one server) and the wire-death
# regression tests under the race detector. -short trims
# the schedule grid so ci stays fast; run `go test ./internal/bench/
# -run Chaos` for the full sweep.
chaos:
	$(GO) test ./internal/bench/ -run 'Chaos' -race -short
	$(GO) test ./internal/client/ -run 'Windowed|Do|Backoff|AbandonedCreate' -race

# crash runs the deterministic crash matrix under the race detector:
# every WAL/page death point in the standard workload is swept as a
# fault trap (strided in -short), plus the concurrent variant — a store
# death mid-load of a permanent table under 16 live reader sessions —
# and after each the directory is reopened and the recovered state must
# equal a committed pre- or post-load state — never a torn one — with
# no transfer temp table named in the catalog or meta.tango. Temp
# tables are unlogged, so their writes are no crash points; the engine
# test checks that their CREATE, load, scan and DROP write no WAL and
# that a checkpoint leaves no trace of them. The schedule tests pin how
# wal/page traps parse and fire beside wire rules, and which rules no
# plane can honour; the trip test, that no write in flight reaches a
# file once the store is dead; the failed-write test, that a page write
# reported failed leaves nothing for Recover to replay; the refusal
# tests, that the in-memory store, and NewSystem over it, refuse a
# wal or page trap it would never reach. Run `go test ./internal/bench/ -run
# TestCrash` for the unstrided sweep.
crash:
	$(GO) test ./internal/bench/ -run 'TestCrash|TestNewSystemRefusesPhysicalTrapsInMemory' -race -short
	$(GO) test ./internal/fault/ -run 'TestScheduleStoragePlane|TestScheduleRejects' -race
	$(GO) test ./internal/storage/ -run 'TestFileDiskTripStopsWrites|TestFileDiskFailedWriteLeavesNoRecord|TestSetFaultsRefusesPhysicalTraps' -race
	$(GO) test ./internal/engine/ -run 'TestTempTableWritesNoWAL|TestOpenAtDropsLegacyTempTable' -race

# load is the TCP serving-path smoke: LOADSESSIONS simulated
# sessions replay the mixed workload over real sockets — through the
# fault-injecting chaos proxy — against an embedded admission-
# controlled server, under the race detector. The run fails on any
# untyped error or leaked cursor/temp-table/session after drain.
# `make load LOADSESSIONS=1024` is the full thousand-session sweep.
LOADSESSIONS ?= 256
load:
	$(GO) run -race ./cmd/tangoload -sessions $(LOADSESSIONS) -ops 2 -retries 8 -op-timeout 2s -deadline 15s -chaos "seed=7;stall=200us;fetch@3=drop"

# The per-layer row-path micro-benchmarks (rows/s and allocs/op each):
# the shared sort routine (integer, string and name keys, and 8-row
# sorts), a heap scan's page decode at 0, 3, 4 and 8 of
# POSITION's columns and at 3 of a 31-column EMPLOYEE-shaped heap's,
# the engine's scan + project + ORDER BY on integer keys, on a string
# key and on coalesce's key, its COUNT(*), filter and join scans, and
# the range-sel sweep: an indexed range at 0.1 %, 1 %, 5 % and 46 %
# read by index, by heap scan and by the path ANALYZE's statistics
# choose, and the heap-filter sweep: a heap scan testing a float and a
# date conjunct on its pages at 2 %, 25 % and 90 % selectivity; and a
# server cursor's fetches draining a 12k-row filter + projection and an
# ORDER BY (ns/op, B/op and allocs/op); and the T^D layer: a temp
# table's CREATE IF NOT EXISTS, 3,600-row bulk load and DROP on a
# durable store (ns/op, allocs/op and fsyncs/op).
ROWBENCH = SortTuples|HeapScanDecode|EngineSort|EngineScan|CursorFetch|TempTransfer

# XXLBENCH is the middleware operator layer: TAGGR^M's sweep per
# aggregate kind, the temporal and the regular merge join, and SORT^M in
# memory and spilling (ns/op, B/op and allocs/op).
XXLBENCH = TAggrSweep|TJoinOverlap|MergeJoin|SortSpill

# OPTBENCH is the optimizer layer (internal/bench): one Optimize of
# each paper query and of the tangobench opt_heavy statements
# (sel_taggr, tjoin_ordered, join at 600/200 rows; ns/op, allocs/op
# and plans/op, the plans the search priced), so an optimizer
# regression names its query.
OPTBENCH = Selectivity/optimize

# bench-smoke runs every benchmark for a single iteration, so ci
# catches benchmarks that no longer compile or crash without paying
# for real measurement. The Query1 pattern also matches Query1Tracing,
# so ci smokes the tracing-overhead pair on every run; GroupCommit
# smokes the concurrent commit path, AblationBulkLoad the per-row
# INSERT statements beside the bulk load.
bench-smoke:
	$(GO) test ./internal/bench/ -run '^$$' -bench 'Query1|SortM|GroupCommit|AblationBulkLoad' -benchtime 1x
	$(GO) test ./internal/bench/ -run '^$$' -bench '$(OPTBENCH)' -benchtime 1x
	$(GO) test ./internal/wire/ -run '^$$' -bench . -benchtime 1x
	$(GO) test ./internal/xxl/ -run '^$$' -bench '$(XXLBENCH)' -benchtime 1x
	$(GO) test ./internal/types/ ./internal/storage/ ./internal/engine/ ./internal/server/ -run '^$$' -bench '$(ROWBENCH)' -benchtime 1x

# bench-json measures the query benchmarks plus the wire codec
# benchmarks, the optimizer benchmarks (OPTBENCH, 200 optimizations
# per query) and the middleware operators (XXLBENCH, 10 runs each), and
# archives the parsed numbers — ns/op, B/op,
# allocs/op, rows/s, and the tracing overhead ratio (Query1Tracing vs
# Query1; bar <= 5%) — in $(BENCHOUT). 15 iterations per benchmark keeps the overhead ratio
# above measurement noise on small machines.
# GroupCommit runs 200 commits per session count so the
# fsyncs/commit metric is measured under real contention: the
# archived number must fall below 1 at 8 and 64 sessions.
bench-json:
	mkdir -p $(dir $(BENCHOUT))
	{ $(GO) test ./internal/bench/ -run '^$$' -bench 'Query1|SortM' -benchtime 15x; \
	  $(GO) test ./internal/bench/ -run '^$$' -bench 'GroupCommit' -benchtime 200x; \
	  $(GO) test ./internal/bench/ -run '^$$' -bench 'TCPLoad' -benchtime 1x; \
	  $(GO) test ./internal/bench/ -run '^$$' -bench '$(OPTBENCH)' -benchtime 200x; \
	  $(GO) test ./internal/wire/ -run '^$$' -bench . -benchtime 2000x; \
	  $(GO) test ./internal/xxl/ -run '^$$' -bench '$(XXLBENCH)' -benchtime 10x; \
	  $(GO) test ./internal/types/ ./internal/storage/ ./internal/engine/ ./internal/server/ -run '^$$' -bench '$(ROWBENCH)' -benchtime 20x; } | $(GO) run ./cmd/benchjson > $(BENCHOUT)

# tangobench-smoke vets and tests the nested benchmark module, which
# `go build ./...` at the root does not see: it imports the codec, the
# Value constructors and accessors, the comparison helpers, the xxl
# constructors and rel.Drain, so a signature change there fails here
# rather than in a benchmark run. Then one short traced mw_heavy
# run executes the module's per-layer replay — the only caller of xxl's
# deprecated partitioned constructors — under its correctness checks,
# and one short opt_heavy run executes the middleware's cached-metadata
# path (parse, optimize and SQL generation reading the connection's
# schema and statistics cache) under the same checks.
tangobench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -workload mw_heavy -seconds 1 -trace 1
	bash benchmark/run.sh -workload opt_heavy -seconds 1

# bench-pairs measures the working tree against HEAD the way a
# performance claim is judged: PAIRS alternated tangobench runs of
# SECS seconds on workload W and seed SEED, then per end-to-end metric
# the parent's median and quartiles, the change's median, the median
# per-pair ratio and the pairs won (scripts/benchpairs.sh). W=all runs
# it once for each workload BENCHMARK.json names, in turn. It writes
# only under .bench_build/ and is not part of ci.
W ?= plain_sql
SEED ?= 1
PAIRS ?= 10
SECS ?= 20
BENCH_WORKLOADS = $(shell python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
bench-pairs:
	set -e; for w in $(if $(filter all,$(W)),$(BENCH_WORKLOADS),$(W)); do \
		bash scripts/benchpairs.sh $$w $(SEED) $(PAIRS) $(SECS); \
	done

# loc prints the tracked size metric: non-test Go lines per package and
# in total, benchmark/ (a separate module with its own contract)
# excluded. ROADMAP's north star 2 wants the total to go down.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total non-test Go lines\n", t }' | sort -k2

# ci is the full verification gate: compile everything, check gofmt,
# vet, run the project analyzers (publishing lint.json), smoke the fuzz
# targets and the benchmarks, run the test suite at every GOMAXPROCS width and
# under the race detector (tests also planck-check every plan), run
# the short chaos sweep under -race, sweep the crash-recovery matrix
# under -race, and print the size metric.
ci: build fmt vet lint-report fuzz test race chaos crash load bench-smoke tangobench-smoke loc

clean:
	$(GO) clean ./...
