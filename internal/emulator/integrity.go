package emulator

import (
	"fmt"
	"net"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/integrity"
)

// IntegrityStallTimeout is the supervisor's wedge threshold on the integrity
// replay's manual clock.
const IntegrityStallTimeout = 50 * time.Millisecond

// IntegrityOptions sizes one corruption + worker-stall chaos replay.
type IntegrityOptions struct {
	// Sessions is the number of concurrent user sessions (default 16).
	Sessions int
	// Seed drives variant weights, request inputs and the corruption
	// injector; equal seeds replay the whole scenario bit-identically.
	Seed int64
}

// IntegrityRunResult is one corruption + stall replay's full outcome.
type IntegrityRunResult struct {
	Replay
	// Corruption reports the fault injected into the partitioned variant.
	Corruption integrity.Report
	// CorruptSig is the branch signature that was poisoned (and must end up
	// quarantined).
	CorruptSig string
	// Quarantined lists the quarantined signatures at the end of the run.
	Quarantined []string
	// DesiredClass and ServedClass are the swap manager's final view: they
	// diverge because the desired class's variant is quarantined.
	DesiredClass int
	ServedClass  int
	// Options echoes the defaulted options the replay ran under.
	Options IntegrityOptions
}

// RunIntegrity replays the self-healing scenario end to end on a real
// loopback offload channel — 4 workers, batches of up to 4 — in three phases
// on IntegrityPhaseMbps: a wedged offload write healed by the supervisor, a
// bit-flip in the idle partitioned variant's cached weights, and a pre-swap
// manifest check that quarantines it while last-known-good keeps serving.
// Every request completes exactly once, and everything served after the
// corruption is bit-identical to an out-of-band recompute.
func RunIntegrity(opts IntegrityOptions) (*IntegrityRunResult, error) {
	if opts.Sessions <= 0 {
		opts.Sessions = 16
	}
	perPhase := RequestsPerSession * opts.Sessions
	clk := faultnet.NewManualClock()
	// Once armed the gate parks exactly one offload write across the whole
	// pool, and holds it until released.
	gate := faultnet.NewGate()
	r, err := newRig(rigConfig{
		seed:         opts.Seed,
		sessions:     opts.Sessions,
		phaseMbps:    IntegrityPhaseMbps,
		perPhase:     perPhase,
		workers:      4,
		maxBatch:     4,
		clock:        clk,
		stallTimeout: IntegrityStallTimeout,
		wrap: func(worker int, conn net.Conn) net.Conn {
			spec := faultnet.Spec{Seed: opts.Seed + int64(worker)*seedStride, WriteGate: gate}
			return faultnet.Wrap(conn, spec, nil)
		},
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	// Deferred after close, so it runs first: the gateway cannot join the
	// parked worker until the gate lets its write through.
	defer gate.Release()

	// Phase 0: partitioned variant, wedged worker. Arm before submitting so
	// the first offload write of the phase parks; once the wedge is in place,
	// age the manual clock past the stall threshold. The jump ages every batch
	// in flight at that instant, not only the parked one, so the supervisor
	// (polling in real time) restarts every worker that held one — anywhere
	// from 1 to all 4 — and each orphaned batch is still answered exactly once.
	// The drain can only finish if a replacement re-served the parked batch:
	// the gate stays held until the very end of the run.
	gate.Arm()
	r.submit(0, perPhase)
	for i := 0; i < 30_000 && r.err == nil && !gate.Claimed(); i++ {
		time.Sleep(time.Millisecond)
	}
	if r.err == nil && !gate.Claimed() {
		return nil, fmt.Errorf("emulator: no offload write claimed the stall gate")
	}
	clk.Advance(2 * IntegrityStallTimeout)
	r.drain()

	// Phase 1: collapse to the low class; the edge-resident variant serves.
	r.poll(1)
	// Corrupt the cached partitioned variant while nothing is flying on it.
	corrupt, err := r.provider.ForClass(len(ClassMbps) - 1)
	if err != nil {
		return nil, err
	}
	fault, err := integrity.NewCorruptor(opts.Seed+2).Corrupt(corrupt.Net, integrity.BitFlip)
	if err != nil {
		return nil, err
	}
	r.submit(1, perPhase)
	r.drain()

	// Phase 2: bandwidth recovers, the monitor wants the high class back —
	// but its variant is poisoned. The pre-swap verification must quarantine
	// it and keep the last-known-good edge variant serving.
	r.poll(2)
	r.submit(2, perPhase)
	r.drain()
	if r.err != nil {
		return nil, r.err
	}

	gate.Release()
	return &IntegrityRunResult{
		Replay:       r.close(),
		Corruption:   fault,
		CorruptSig:   corrupt.Sig,
		Quarantined:  r.provider.Quarantined(),
		DesiredClass: r.mgr.Desired(),
		ServedClass:  r.mgr.Class(),
		Options:      opts,
	}, nil
}
