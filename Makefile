# WiScape build/test entry points. `make ci` is what every change must
# pass: vet + wiscape-lint + build + the full test suite twice, once plain
# (the allocation guards, which skip themselves or drop their count under
# the race detector, run only here) and once under the race detector (the
# store/coordinator shutdown paths are race-sensitive).
GO ?= go

.PHONY: all vet lint lint-stats bench-lint build test race ci leftovers bench bench-e2e bench-sketch swarm-smoke failover-smoke fuzz loc knobs

all: vet lint build test

vet:
	$(GO) vet ./...

# The repo's own invariant gate: the six analyzers `wiscape-lint -list`
# prints (nodeterm, lockio, wirebound, goleak, errdrop and lockorder) over
# every module package (see DESIGN.md "Static analysis").
# Any finding not silenced by an audited //lint:ignore fails the build.
lint:
	$(GO) run ./cmd/wiscape-lint ./...

# Same gate with the per-analyzer timing table on stderr.
lint-stats:
	$(GO) run ./cmd/wiscape-lint -stats ./...

# Refresh the checked-in timing ledger: re-records the current suite's
# load/facts/analyze split under the "census-six-analyzers" label (six
# analyzers after the second planted-bug census retired nilsafemetric and
# nodeterm's global-rand rule; one walk per body, one ascending fixed
# point), leaving the earlier snapshots in place for comparison.
bench-lint:
	$(GO) run ./cmd/wiscape-lint -stats -stats-json BENCH_lint.json -stats-label census-six-analyzers ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci: vet lint build test race

# Fails, listing them, while any bench, wiscape-* or *.test process is still
# running: a benchmark, drill or test run must stop what it started. It
# matches process names (`ps -eo comm=`), not command lines, so the check
# does not find itself. The kernel cuts a name to 15 characters, so a
# 16-character test binary such as coordinator.test shows as coordinator.tes.
leftovers:
	@ps -eo pid=,comm= | awk '$$2 == "bench" || $$2 ~ /^wiscape-/ || $$2 ~ /\.test$$/ || (length($$2) == 15 && $$2 ~ /\.(t|te|tes)$$/) { print; n++ } \
		END { if (n) { print n " leftover process(es)"; exit 1 } }'

# Short-burst coverage-guided fuzzing, 30 s a fuzzer:
#   FuzzDecode: any wire byte stream, JSON and binary lines (seeded with one of each lead); no panic, each envelope a decode of its own line.
#   FuzzSketchRoundTrip: the sketch serializer; exact round trip, appended after a prefix of the input (the reference encoder's bytes), raw bytes never panic, and decoded into a used sketch as decoded fresh (same bytes, same footprint).
#   FuzzFrameRoundTrip: the replication line stream; a replica applies only whole lines the store accepts, report lines too.
#   FuzzRecordEncodeMatchesJSON: the WAL record writer; a sample JSON carries is one report line that reads back as json.Unmarshal(json.Marshal) of it, times in UTC; any other both refuse.
#   FuzzBinaryRecordDecode: the binary WAL line decoders, report and sample; no panic, accepted lines re-encode.
#   FuzzBinarySampleReportDecode: the binary sample report decoder; accepted lines re-encode.
#   FuzzSampleDecodeMatchesJSON: a JSON sample on the wire and in the WAL, held to json.Unmarshal.
#   FuzzReplyDecodeMatchesJSON: any wire line; a JSON one held to json.Unmarshal, the binary lines of all eight rows (round trip and queries) to json.Unmarshal of their JSON frames; accepted binary lines re-encode, and decode into storage other lines left values in as into fresh memory.
# Corpora under */testdata/fuzz seed the first two, FuzzRecordEncodeMatchesJSON
# and the last two; the rest seed themselves in code.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzSketchRoundTrip -fuzztime=30s ./internal/sketch
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=30s ./internal/replication
	$(GO) test -fuzz=FuzzRecordEncodeMatchesJSON -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzBinaryRecordDecode -fuzztime=30s ./internal/store
	$(GO) test -fuzz=FuzzBinarySampleReportDecode -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzSampleDecodeMatchesJSON -fuzztime=30s ./internal/wire
	$(GO) test -fuzz=FuzzReplyDecodeMatchesJSON -fuzztime=30s ./internal/wire

# All benchmarks, repo-wide, without re-running unit tests alongside them.
# The codec's are BenchmarkEncode/BenchmarkDecode (internal/wire: a sample
# report out and in, binary and JSON) and BenchmarkAppend/BenchmarkParseRecordLine
# (internal/store: a WAL line out and in, binary and JSON);
# BenchmarkZoneListRoundTrip (internal/cluster) is a zone list through a
# gateway in front of two in-process shards, reporting allocs/op, and
# BenchmarkEstimateMerge (internal/cluster) the gateway's merge of two
# shards' window sketches into one estimate reply; BenchmarkNoteReportSparse
# (internal/coordinator) is the client registry's cost of a zone report from
# one of 4,000 clients each heard from every four activity horizons.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# The ingest-to-estimate benchmark BENCHMARK.json declares: four workloads,
# five interleaved rounds each, end-to-end medians (see bench/README.md).
# BENCH_e2e.json is its ledger: a perf PR appends its parent and change rows.
bench-e2e:
	$(GO) run ./bench

# Sketch substrate: ingest/merge/quantile throughput plus the per-zone
# resident-bytes curve (BenchmarkZoneStateFootprint reports bytes/zone —
# it must stay flat as the sample count grows; see BENCH_sketch.json).
bench-sketch:
	$(GO) test -bench='BenchmarkDigest|BenchmarkEpochSketch' -benchmem -run='^$$' ./internal/sketch/
	$(GO) test -bench='BenchmarkZoneStateFootprint' -benchmem -run='^$$' ./internal/core/

# Cluster smoke: build both cluster binaries and run the gateway + swarm
# suite (including the 200-agent load test) under the race detector.
swarm-smoke:
	$(GO) build ./cmd/wiscape-gateway ./cmd/wiscape-swarm
	$(GO) test -race -count=1 ./internal/cluster/...

# Failover smoke: the replication subsystem's unit suite, the log reader it
# tails the WAL with and that recovery drains (cursor and recovery vs the
# scans they replaced, torn and corrupt segments, checkpoint choice, racing a
# live appender — repeated, since a race shows only some of the time), the
# gateway's per-shard control passes (kill/promote/rejoin with acked-sample
# preservation, swarm chaos hook, degraded readiness, a manual promote racing
# a breaker-driven one, poll counts, demotion, and revival: a restarted shard
# without standbys fails agent reports fast until a pass's status poll closes
# its breaker, all matched by the TestReconcile prefix) and the
# coordinator's interleaved role orders, all under the race detector.
failover-smoke:
	$(GO) build ./cmd/wiscape-coordinator ./cmd/wiscape-gateway ./cmd/wiscape-swarm
	$(GO) test -race -count=1 ./internal/replication/
	$(GO) test -race -count=5 -run 'Cursor|ReadBatch|Recover|Torn|Corrupt|Checkpoint' ./internal/store
	$(GO) test -race -count=3 -run 'TestFailover|TestSwarmChaos|TestReadyz|TestManualPromote|TestReconcile' ./internal/cluster/
	$(GO) test -race -count=5 -run 'TestRoleOrdersKeepTailWithRole' ./internal/coordinator/

# Non-test Go lines per package and in total, leaving out bench/ and
# testdata/ — the figure ROADMAP item 2 asks simplification PRs to shrink.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); by[d] += $$1; t += $$1 } \
			END { for (d in by) printf "%7d %s\n", by[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# Settable values: per package, the exported fields of each ...Options and
# ...Config struct (as `go doc -all` lists them), then each command's flag
# count — the figures a simplification PR that turns a one-value setting
# into a constant shrinks.
knobs:
	@for p in $$($(GO) list ./...); do $(GO) doc -all $$p 2>/dev/null | awk -v pkg=$$p ' \
		/^type [A-Za-z0-9_]*(Options|Config) struct \{$$/ { name = $$2; n = 0; inside = 1; next } \
		inside && /^}/ { printf "%7d %s.%s\n", n, pkg, name; inside = 0; next } \
		inside && match($$0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Za-z_][A-Za-z0-9_]*)* /) { s = substr($$0, 1, RLENGTH); n += gsub(/,/, "", s) + 1 }'; \
	done | awk '{ print; t += $$1 } END { printf "%7d fields\n", t }'
	@for f in cmd/*/main.go; do \
		printf "%7d %s\n" $$(grep -Eo '\b(flag|fs)\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)\(' $$f | wc -l) $$(dirname $$f); \
	done | awk '{ print; t += $$1 } END { printf "%7d flags\n", t }'
