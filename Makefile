# Convenience targets; scripts/check.sh is the canonical gate.

.PHONY: build test race vet vet-json vet-cfg check chaos chaos-integrity fuzz bench bench-smoke trace telemetry

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...
	go run ./cmd/cadmc-vet -baseline vet-baseline.json ./...

# Regenerate the checked-in vet baseline from the current findings. Exit 1
# (findings exist) still writes the report; a load error (exit 2) aborts.
vet-json:
	go run ./cmd/cadmc-vet -json ./... > vet-baseline.json; \
	status=$$?; if [ $$status -eq 2 ]; then exit 2; fi

# The vet engine on its own: the CFG builder's unit and golden-dump tests,
# every analyzer's fixtures with the seeded-bug corpus and the determinism
# test, then the suite over the repo. Fast inner loop while working on
# internal/analysis.
vet-cfg:
	go test -count=1 ./internal/analysis/...
	go run ./cmd/cadmc-vet ./...

check:
	./scripts/check.sh

# Fault-injection suite, run twice to prove the chaos schedules are
# deterministic (same seeds, same routes) and race-free.
chaos:
	go test -race -count=2 ./internal/faultnet
	go test -race -count=2 -run 'Resilient|Breaker|Live|Client|Split|Server|Batch' ./internal/serving ./internal/emulator

# Integrity + self-healing suite: seeded weight corruption, pre-swap
# manifest verification, variant quarantine/rollback, and wedged-worker
# restart — the emulator scenario plus every unit behind it, run twice to
# prove the injected faults replay identically.
chaos-integrity:
	go test -race -count=2 -run 'Integrity|Quarantine|Corrupt|Supervisor|Manifest' \
		./internal/integrity ./internal/gateway ./internal/emulator

# Five-second fuzz smoke of the serving protocol's frame decoder.
fuzz:
	go test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/serving

bench:
	go test -bench=. -benchmem

# benchmark/ is a module of its own, so `go test ./...` here never compiles
# it: vet it and run its short tests against this tree. Not `go build ./...`
# there, which overwrites the tracked benchmark/benchmark. The benchmark
# itself is `bash benchmark/run.sh`.
bench-smoke:
	cd benchmark && go vet ./... && go test -short ./...

# Deterministic traced replay: runs the two-phase offload→edge scenario on
# the auto-advancing telemetry clock and prints per-request waterfalls plus
# the sorted metric exposition. Same seed, same bytes — every time.
trace:
	go run ./cmd/emulate -mode trace

# Telemetry determinism gate on its own: snapshot/exposition bit-equality
# across GOMAXPROCS, the emulator's traced-replay acceptance test, and the
# byte-for-byte stdout goldens of `emulate -mode trace` / `-mode live`
# (`go test ./cmd/emulate -run TestReplayGoldens -update` rewrites them).
telemetry:
	go test -race -count=2 -run 'Determinism|Snapshot|Trace|Registry' ./internal/telemetry
	go test -race -count=2 -run 'TestRunTraceBitIdenticalReplay' ./internal/emulator
	go test -race -count=2 -run 'TestReplayGoldens' ./cmd/emulate
