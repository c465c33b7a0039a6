#!/usr/bin/env bash
# check.sh — the repo's single verification gate. Runs formatting, go vet,
# the build, the custom cadmc-vet analyzer suite (internal/analysis) and the
# full test suite under the race detector. Every gate must pass; the first
# failure stops the run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== cadmc-vet ./...  (the suite \`cadmc-vet -list\` prints, cross-package facts, baseline gate)"
go run ./cmd/cadmc-vet -json -baseline vet-baseline.json ./... > /dev/null

echo "== one offload channel (gob stays a test oracle; serving takes no deadline exemptions)"
if grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=analysis '"encoding/gob"' . ||
    grep -rn 'cadmc:allow deadline' internal/serving; then
    echo "encoding/gob on a production path, or a deadline exemption in internal/serving" >&2
    exit 1
fi

echo "== one loopback rig (serving.ServeLoopback is the only listener outside tests)"
listens=$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark 'net\.Listen(' . || true)
if [ "$(printf '%s' "$listens" | grep -c .)" -ne 1 ]; then
    echo "want exactly one net.Listen( in non-test Go outside benchmark/, got:" >&2
    echo "$listens" >&2
    exit 1
fi

echo "== one cost pass (nn.Model.Costs is the only per-layer shape pass outside nn)"
passes=$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark -E 'InferDims\(|MACCsPerLayer\(|FeatureBytes\(' . |
    grep -v '^\./internal/nn/' || true)
if [ -n "$passes" ]; then
    echo "want no InferDims(/MACCsPerLayer(/FeatureBytes( in non-test Go outside internal/nn and benchmark/, got:" >&2
    echo "$passes" >&2
    exit 1
fi

echo "== one forward per decision (the policy gradient reuses the sampling pass; search numbers pinned at any GOMAXPROCS)"
for recv in p c; do
    forwards=$(grep -c "$recv\.enc\.Forward(" internal/rl/policy.go || true)
    if [ "$forwards" -ne 1 ]; then
        echo "want exactly one $recv.enc.Forward( (one per controller) in internal/rl/policy.go, got $forwards" >&2
        exit 1
    fi
done
if [ "$(grep -c 'enc\.Forward(' internal/rl/policy.go)" -ne 2 ]; then
    echo "want exactly two enc.Forward( calls in internal/rl/policy.go, one per controller" >&2
    exit 1
fi
go test -count=1 -run 'TestAccumulatePassMatchesFreshForward|TestStalePassRefused|TestBaselineAdvantageShrinksOnConstantStream' ./internal/rl
go test -count=1 -run 'TestOneForwardPerDecision|TestObserveRefusesPassFromBeforeStep|TestRLStrategyConstantRewardMovesNothing|TestEvaluateMemoKeepsCloseBandwidthsApart' ./internal/core
for procs in 1 4; do
    GOMAXPROCS=$procs go test -count=1 -run 'TestSearchGolden' ./internal/report
done

echo "== cadmc-vet determinism (flow-sensitive diagnostics must be bit-identical at any GOMAXPROCS)"
vet_base=$(mktemp) vet_got=$(mktemp)
GOMAXPROCS=1 go run ./cmd/cadmc-vet -json ./... > "$vet_base" || true
for procs in 4 8; do
    GOMAXPROCS=$procs go run ./cmd/cadmc-vet -json ./... > "$vet_got" || true
    diff -u "$vet_base" "$vet_got"
done
rm -f "$vet_base" "$vet_got"
go test -count=1 -run 'TestRunAllDeterministic|TestSeededBugCorpus' ./internal/analysis

echo "== go test -race ./..."
go test -race ./...

# benchmark/ is its own module, so ./... above never compiles it: this is what
# notices a change here breaking the API it builds against. Not `go build
# ./...` there — that overwrites the tracked benchmark/benchmark.
echo "== benchmark module (own go.mod: vet + short tests against this tree)"
(cd benchmark && go vet ./... && go test -short ./...)

echo "== chaos suite (-count=2: fault schedules must replay identically)"
go test -race -count=2 ./internal/faultnet
go test -race -count=2 -run 'Resilient|Breaker|Live|Client|Split|Server|Batch' \
    ./internal/serving ./internal/emulator

echo "== gateway soak (-count=2: hot-swaps must be lossless and race-clean)"
go test -race -count=2 -run 'Gateway' ./internal/gateway ./internal/emulator

echo "== chaos-integrity (-count=2: corruption quarantined pre-swap, wedged workers healed)"
go test -race -count=2 -run 'Integrity|Quarantine|Corrupt|Supervisor|Manifest' \
    ./internal/integrity ./internal/gateway ./internal/emulator

echo "== fuzz smoke (5s: serving frame decoder must shrug off hostile bytes)"
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 5s ./internal/serving

echo "== determinism suite (-count=2: parallel kernels must be bit-exact at any GOMAXPROCS)"
go test -race -count=2 -run 'Determinism' \
    ./internal/parallel ./internal/tensor ./internal/nn ./internal/report

echo "== inference executor (no race detector: it cannot assert the allocation floor; hostile shapes must be errors, not panics)"
go test -count=1 -run 'TestForwardAllocationFloor|TestForwardRejectsHostileShapes|TestForwardRangeBatchViewMatchesCopy' ./internal/nn
go test -count=1 -run 'TestServerSurvivesHostileShape|TestInferBatchBytesIndependentOfActivation|TestInferBatchViewFallbackMatchesCopyPath' \
    ./internal/serving
go test -race -count=10 -run 'TestPlanCacheConcurrentFirstUse' ./internal/nn

echo "== telemetry determinism (-count=2: snapshots and traced replays must be bit-identical)"
go test -race -count=2 -run 'Determinism|Snapshot|Trace|Registry' ./internal/telemetry
go test -race -count=2 -run 'TestRunTraceBitIdenticalReplay' ./internal/emulator
go test -race -count=2 -run 'TestReplayGoldens' ./cmd/emulate

echo "== bench smoke (every benchmark must still run)"
go test -run '^$' -bench . -benchtime 1x ./internal/tensor ./internal/nn ./internal/report

echo "== wire determinism (bit-exact mode must replay identically at any GOMAXPROCS)"
for procs in 1 4 8; do
    GOMAXPROCS=$procs go test -count=1 \
        -run 'TestGatewayEndToEndAcrossHotSwaps|TestRunTraceBitIdenticalReplay|TestGatewayMixedWireFleet' \
        ./internal/emulator ./internal/gateway
done

echo "all checks passed"
