# Developer entry points; CI runs `make check` and `make bench-smoke`.

# bench pipes `go test` into bench2json; bash + pipefail keeps a failing
# benchmark run from silently writing an empty BENCH_wire.json.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: check vet build test race lint bench bench-all bench-smoke chaos chaos-long

check: vet build test lint

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree under the race detector — not just the historical hot
# spots: every package is cheap enough, and the edges between them are
# where the lockblock-class bugs lived.
race:
	$(GO) test -race ./...

# Static analysis: gofmt gating, the house analyzers (corona-lint:
# maporder, lockblock, wiresym, wallclock), and — when their pinned
# binaries are installed (CI installs them; they need network to fetch)
# — staticcheck and govulncheck.
lint:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/corona-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck -checks 'SA*' ./...; \
		else echo "staticcheck not installed; skipped (CI runs it pinned)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipped (CI runs it pinned)"; fi

# Wire-layer benchmarks (payload encode, fan-out, round trip, end-to-end
# dissemination) recorded in BENCH_wire.json; durable-store benchmarks
# (append throughput, WAL/snapshot replay vs channel count, full restart
# Open) recorded in BENCH_store.json; client-edge benchmarks
# (notification fan-out through the node's session table into
# clientproto frame encode) recorded in BENCH_client.json; hot-channel fan-out benchmarks
# (owner messages per update with and without delegate sharding, plus the
# encode-once NotifyBatch edge against the per-client-encode baseline,
# and subscription ingest into one channel at 100/1000/6000 subscribers)
# recorded in BENCH_fanout.json; observability benchmarks (counter inc,
# labeled lookup, histogram observe, a full /metrics render at 1k
# series) recorded in BENCH_obs.json; web-edge benchmarks (the session
# table's replay ring append/replay, WS frame encode, notify-to-queue
# delivery with the encode-once shared slot) recorded in BENCH_web.json; difference-engine
# benchmarks (Extract, ExtractDiff, Compute, Encode, Decode+Apply on one
# update of a feed.Generator channel) and the origin poll that feeds them (HTTPFetch,
# 304 and 200 over loopback) recorded in BENCH_diff.json.
bench:
	$(GO) test -run xxx -bench 'Wire|UpdateEncode|UpdateDecodeForward|FanOutEncode|UpdateDissemination' -benchmem . ./internal/core/ \
		| $(GO) run ./cmd/bench2json -o BENCH_wire.json
	$(GO) test -run xxx -bench 'Store' -benchmem ./internal/store/ \
		| $(GO) run ./cmd/bench2json -o BENCH_store.json
	$(GO) test -run xxx -bench 'Client' -benchmem ./internal/clientproto/ \
		| $(GO) run ./cmd/bench2json -o BENCH_client.json
	$(GO) test -run xxx -bench 'Fanout|SubscribeIngest' -benchmem ./internal/core/ ./internal/clientproto/ \
		| $(GO) run ./cmd/bench2json -o BENCH_fanout.json
	$(GO) test -run xxx -bench 'Obs' -benchmem ./internal/metrics/ \
		| $(GO) run ./cmd/bench2json -o BENCH_obs.json
	$(GO) test -run xxx -bench 'Web' -benchmem ./internal/webgateway/ ./internal/clientproto/ \
		| $(GO) run ./cmd/bench2json -o BENCH_web.json
	$(GO) test -run xxx -bench '^Benchmark(Extract|ExtractDecorated|ExtractDiff|Compute|Encode|DecodeApply|HTTPFetch)$$' -benchmem ./internal/diffengine/ ./internal/core/ \
		| $(GO) run ./cmd/bench2json -o BENCH_diff.json
	$(MAKE) chaos

# The torture suite: every chaos scenario at CI scale, with the invariant
# sweep (single owner, no black holes, monotonic versions, exactly-once
# after convergence, consistent delegate rosters). Deliveries and
# duplicates, delivery latency, violation count (must be 0), and peak
# owner load are recorded in BENCH_scale.json.
chaos:
	$(GO) run ./cmd/corona-chaos -o BENCH_scale.json

# The same suite at deployment scale: 4096 nodes, 10^5 subscriptions.
# Takes tens of minutes; not part of bench or CI.
chaos-long:
	$(GO) run ./cmd/corona-chaos -scale long -o BENCH_scale_long.json

# Every benchmark, including the figure regenerations.
bench-all:
	$(GO) test -run xxx -bench . -benchmem .

# One iteration of every benchmark — a CI smoke test that the bench
# harness still builds and runs end to end.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
