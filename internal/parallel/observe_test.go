package parallel

import (
	"sync/atomic"
	"testing"
)

func TestObservePublishesRuntimeGauges(t *testing.T) {
	before := Stats()
	var hits atomic.Int64
	For(1024, 8, func(lo, hi int) {
		hits.Add(int64(hi - lo))
	})
	if hits.Load() != 1024 {
		t.Fatalf("For covered %d elements, want 1024", hits.Load())
	}
	after := Stats()
	if after.ForCalls != before.ForCalls+1 {
		t.Fatalf("ForCalls went %d -> %d, want +1", before.ForCalls, after.ForCalls)
	}
	sink := fakeSink{m: map[string]float64{}}
	Observe(sink)
	if got := sink.m["parallel.for.calls"]; got != float64(after.ForCalls) {
		t.Fatalf("parallel.for.calls gauge = %v, want %v", got, after.ForCalls)
	}
	for _, name := range []string{
		"parallel.for.inline", "parallel.for.chunks", "parallel.for.enlisted",
		"parallel.for.busy_ms", "parallel.pool.workers",
		"parallel.workspace.reuses", "parallel.workspace.grows",
	} {
		if _, ok := sink.m[name]; !ok {
			t.Fatalf("Observe did not publish %s", name)
		}
	}
	// Observe is idempotent: a second export overwrites, never accumulates.
	Observe(sink)
	if got := sink.m["parallel.for.calls"]; got > float64(Stats().ForCalls) {
		t.Fatalf("second Observe accumulated: %v > %v", got, Stats().ForCalls)
	}
	Observe(nil) // nil sink is a no-op
}

type fakeSink struct{ m map[string]float64 }

func (s fakeSink) SetGauge(name string, v float64) { s.m[name] = v }
