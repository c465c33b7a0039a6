package parallel

import "sync/atomic"

// Cumulative runtime counters, process-wide like the pool itself. They are
// published as point-in-time gauges (see Observe), never as counter deltas,
// so repeated exports stay idempotent.
var (
	// forCalls counts For invocations with work to do; forInline is the
	// subset that ran entirely on the caller (single chunk, one proc, or
	// serial pin).
	forCalls  atomic.Int64
	forInline atomic.Int64
	// forChunks and forEnlisted count scheduled chunks and enlisted pool
	// helpers across all fanned-out For calls.
	forChunks   atomic.Int64
	forEnlisted atomic.Int64
	// forBusyNS accumulates wall nanoseconds spent inside fanned-out For
	// calls — the runtime's parallel-phase timer.
	forBusyNS atomic.Int64
	// growReused and growGrown count Grow calls that found the buffer big
	// enough and those that had to allocate.
	growReused atomic.Int64
	growGrown  atomic.Int64
)

// Grow returns buf resliced to n floats when its capacity allows and a fresh
// buffer of n otherwise: how a workspace that belongs to one goroutine (a
// forward's slab, the GEMM's panels, the backward's transients) grows
// monotonically to the largest request it has served. The contents are
// whatever the buffer last held — never zeroed on reuse — so a caller must
// write every float before it reads it.
func Grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		growReused.Add(1)
		return buf[:n]
	}
	growGrown.Add(1)
	return make([]float64, n)
}

// MetricSink is the subset of a metrics registry this package publishes
// into. The runtime's counters are cumulative process-wide atomics, so they
// are exported as gauges: Observe overwrites rather than accumulates, and
// exporting twice never double-counts.
type MetricSink interface {
	SetGauge(name string, v float64)
}

// RuntimeStats is a snapshot of the compute runtime's counters.
type RuntimeStats struct {
	// ForCalls / ForInline / ForChunks / ForEnlisted mirror the package
	// counters above.
	ForCalls    int64
	ForInline   int64
	ForChunks   int64
	ForEnlisted int64
	// ForBusyMS is the cumulative wall time inside fanned-out For calls.
	ForBusyMS float64
	// PoolWorkers is the number of pool workers currently spawned.
	PoolWorkers int
	// ArenaHits counts the Grow calls that reused a workspace buffer and
	// ArenaMisses those that grew one. The names predate the workspaces (the
	// benchmark reads them as parallel.arena_hit_ratio); a warm serving or
	// training loop reads all hits.
	ArenaHits   int64
	ArenaMisses int64
}

// Stats snapshots the runtime counters.
func Stats() RuntimeStats {
	return RuntimeStats{
		ForCalls:    forCalls.Load(),
		ForInline:   forInline.Load(),
		ForChunks:   forChunks.Load(),
		ForEnlisted: forEnlisted.Load(),
		ForBusyMS:   float64(forBusyNS.Load()) / 1e6,
		PoolWorkers: Workers(),
		ArenaHits:   growReused.Load(),
		ArenaMisses: growGrown.Load(),
	}
}

// Observe publishes the current runtime counters into sink under the
// parallel.* namespace. Call it at snapshot points (end of a run, before
// rendering an exposition); it is cheap enough to call repeatedly.
func Observe(sink MetricSink) {
	if sink == nil {
		return
	}
	s := Stats()
	sink.SetGauge("parallel.for.calls", float64(s.ForCalls))
	sink.SetGauge("parallel.for.inline", float64(s.ForInline))
	sink.SetGauge("parallel.for.chunks", float64(s.ForChunks))
	sink.SetGauge("parallel.for.enlisted", float64(s.ForEnlisted))
	sink.SetGauge("parallel.for.busy_ms", s.ForBusyMS)
	sink.SetGauge("parallel.pool.workers", float64(s.PoolWorkers))
	sink.SetGauge("parallel.workspace.reuses", float64(s.ArenaHits))
	sink.SetGauge("parallel.workspace.grows", float64(s.ArenaMisses))
}
