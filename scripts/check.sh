#!/bin/sh
# check.sh — the repository's verification gate: formatting, vet, doc
# consistency (public-surface godoc, markdown links, CLI flag coverage),
# build, tests, and (unless SKIP_RACE=1) the full suite under the race
# detector. CI and pre-commit hooks should run exactly this.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== docs =="
./scripts/godoc_check.sh
./scripts/docs_check.sh

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== long-scenario drain golden =="
# TestGoldenProdayDrain also pins the drained capture's pprof bytes; the
# export differential checks the pprof fold against a plain stack-string
# fold on lossy, faulted and adoption-heavy captures.
go test -run 'TestGoldenNetReceiveLongDrain|TestGoldenProdayDrain' .
go test -run 'TestPprofFoldMatchesReference' ./internal/export/

echo "== drain-mode differential (GOMAXPROCS 1/2/4) =="
# The background-decoding, buffer-recycling drain must match the
# record-keeping drain byte for byte whatever the scheduler does, glitched
# readouts included: run the differentials under one, two and four procs,
# and under the race detector (unless skipped) to cover the decode
# goroutine and the buffer handoff itself.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 \
		-run 'TestPipelinedDecodeMatchesSerial|TestRecycle|TestGlitched' \
		./internal/core/
done
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestPipelinedDecodeMatchesSerial|TestRecycle|TestDrainZeroAlloc' \
		./internal/core/
fi

echo "== streamed pprof fold (GOMAXPROCS 1/2/4) =="
# The CLI's lean paths fold pprof as each invocation tree closes — on the
# background decode goroutine for a drained run — and must reproduce the
# proday and netrecv goldens byte for byte; the differential checks the
# streamed fold against a reference fold over a retained analysis on
# clean, faulted and lossy drains. Run them under one, two and four
# procs, and under the race detector (unless skipped) to cover the fold
# on the pipe goroutine.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 -run 'TestLeanFoldMatchesGoldens' ./cmd/kprof/
	GOMAXPROCS=$procs go test -count=1 -run 'TestPprofStreamedFoldMatchesReference' ./internal/export/
done
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 -run 'TestLeanFoldMatchesGoldens' ./cmd/kprof/
	GOMAXPROCS=4 go test -race -count=1 -run 'TestPprofStreamedFoldMatchesReference' ./internal/export/
fi

echo "== machine release (GOMAXPROCS 1/2/4) =="
# A halted machine leaves no proc goroutine behind, and a never-dispatched
# proc never gets one. Halted goroutines exit while the next machine runs,
# so run the release tests under one, two and four procs, and under the
# race detector (unless skipped).
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 \
		-run 'TestHaltReleasesProcs|TestSweepReleasesMachines' \
		./internal/kernel/ ./internal/sweep/
done
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestHaltReleasesProcs|TestSweepReleasesMachines' \
		./internal/kernel/ ./internal/sweep/
fi

echo "== fleet determinism + restart (GOMAXPROCS 1/2/4) =="
# The fleet report must be byte-identical for any projection-worker count
# and ingest interleaving, and a killed-and-restarted projector must
# resume from the checkpoints to the same bytes. Run the differentials
# under one, two and four procs, and under the race detector (unless
# skipped) to cover the staging/projection concurrency itself.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -count=1 \
		-run 'TestFleetDeterminism|TestFleetRestart' \
		./internal/fleet/
done
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestFleet|TestStatusServerFleet' \
		./internal/fleet/ ./internal/export/
fi

echo "== serving tier: multi-client concurrency battery =="
# The SSE hub, ETag cache and time-series ring serve many clients off the
# capture path; their battery (100-subscriber churn, slow-client
# eviction, cache coherence under mutation, the multi-client live-session
# hammer, a client stalled mid-header being cut off) must hold under the
# race detector.
if [ "${SKIP_RACE:-0}" != "1" ]; then
	GOMAXPROCS=4 go test -race -count=1 \
		-run 'TestSSE|TestHub|TestETag|TestSubscribe|TestServing|TestCacheCoherence|TestTimeseries|TestStatusServerCutsOffStalledClient' \
		./internal/export/
fi

echo "== optimize-verify loop =="
# The profile-guided loop must close on a real seed: every registry
# change's measured per-unit delta agrees in sign with its what-if
# estimate and lands within the declared tolerance, the differential
# report reproduces byte for byte, and the budget optimizer stays exact
# against brute force. The loop-sweep determinism test additionally runs
# the whole loop across seeds on 1 and 3 workers and demands identical
# bytes.
go test -count=1 \
	-run 'TestRunLoopVerifiesRegistry|TestRunLoopSweepDeterministicAcrossWorkers|TestOptimizeMatchesBruteForce' \
	./internal/pgo/
go test -count=1 -run 'TestGoldenPGO' .

echo "== fuzz smoke =="
go test -run 'FuzzDecodeUnwrap|FuzzSegmentBoundary|FuzzFaultedDecode|FuzzProdayDecode' ./internal/analyze/
go test -run 'FuzzPprofFold' ./internal/export/
if [ "${SKIP_FUZZ:-0}" != "1" ]; then
	go test -run FuzzSegmentBoundary -fuzz FuzzSegmentBoundary -fuzztime 10s ./internal/analyze/
fi

echo "== coverage floors =="
./scripts/cover_check.sh

# The benchmark gate is a same-host perfbench A/B of this tree against
# the newest landing commit: about 15 min on a 2-core host, so SKIP_BENCH=1
# skips it where that is too long.
if [ "${SKIP_BENCH:-0}" != "1" ]; then
	echo "== benchmark regression gate =="
	./scripts/bench_check.sh
fi

if [ "${SKIP_RACE:-0}" != "1" ]; then
	echo "== go test -race =="
	go test -race ./...
fi

echo "check: all clean"
