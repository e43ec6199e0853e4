GO ?= go

.PHONY: all build test race gobench bench-check fuzz check fmt vet docs-check cover

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel sweep engine makes this routine: the full suite under the
# race detector, including the worker-pool tests.
race:
	$(GO) test -race ./...

# Regression gate: a same-host A/B of the working tree against the newest
# landing commit on perfbench, the benchmark BENCHMARK.json declares. It
# fails when an end-to-end median is worse than its bound (~15 min).
bench-check:
	./scripts/bench_check.sh

# The conventional go-test microbenchmarks (exporters, decode internals).
gobench:
	$(GO) test -bench=. -benchmem

# Short fuzz passes over the decoder's timestamp unwrap, the
# segment-boundary stitching state, the hardened (fault-surviving)
# decode pipeline, proday-shaped drained captures, and the streamed pprof
# fold against the retained one.
fuzz:
	$(GO) test -run FuzzDecodeUnwrap -fuzz FuzzDecodeUnwrap -fuzztime 20s ./internal/analyze/
	$(GO) test -run FuzzSegmentBoundary -fuzz FuzzSegmentBoundary -fuzztime 20s ./internal/analyze/
	$(GO) test -run FuzzFaultedDecode -fuzz FuzzFaultedDecode -fuzztime 20s ./internal/analyze/
	$(GO) test -run FuzzProdayDecode -fuzz FuzzProdayDecode -fuzztime 20s ./internal/analyze/
	$(GO) test -run FuzzPprofFold -fuzz FuzzPprofFold -fuzztime 20s ./internal/export/

# Statement-coverage floors for the packages the fault-injection claims
# rest on (internal/analyze, internal/faults).
cover:
	./scripts/cover_check.sh

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Documentation consistency: every exported identifier in kprof.go has a
# doc comment, every relative markdown link resolves, and every kprof CLI
# flag is covered in README.md.
docs-check:
	./scripts/godoc_check.sh
	./scripts/docs_check.sh

# Everything tier-1 verification should cover: formatting, vet, build,
# tests, and the race detector.
check:
	./scripts/check.sh
