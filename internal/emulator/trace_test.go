package emulator

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRunTraceBitIdenticalReplay is the subsystem's acceptance test: two
// replays of the same seed must produce byte-identical metric expositions
// and byte-identical trace waterfalls, and the waterfalls must show the
// complete request path — admission queue, batch, offload (first phase) and
// edge-only (after the bandwidth collapse) — with non-zero span widths.
func TestRunTraceBitIdenticalReplay(t *testing.T) {
	const seed = 7
	a, err := RunTrace(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(seed)
	if err != nil {
		t.Fatal(err)
	}
	if a.Exposition != b.Exposition {
		t.Fatalf("metric exposition differs between replays:\n--- a ---\n%s\n--- b ---\n%s", a.Exposition, b.Exposition)
	}
	if a.Waterfalls != b.Waterfalls {
		t.Fatalf("trace waterfalls differ between replays:\n--- a ---\n%s\n--- b ---\n%s", a.Waterfalls, b.Waterfalls)
	}
	// And across core counts: determinism comes from the serialised clock
	// protocol, not from a lucky scheduler.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(procs)
		c, err := RunTrace(seed)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if c.Exposition != a.Exposition || c.Waterfalls != a.Waterfalls {
			t.Fatalf("replay at GOMAXPROCS=%d differs from baseline", procs)
		}
	}
	runtime.GOMAXPROCS(prev)

	total := TraceRequestsPerPhase * len(TracePhaseMbps)
	if len(a.Traces) != total {
		t.Fatalf("traces = %d, want %d", len(a.Traces), total)
	}
	if got := a.Report.Completed; got != int64(total) {
		t.Fatalf("completed = %d, want %d", got, total)
	}
	// The default schedule goes high → low bandwidth: the first phase's
	// requests offload, the second phase's run edge-resident.
	for _, span := range []string{"queue", "batch", "offloaded", "edge-only"} {
		if !strings.Contains(a.Waterfalls, span) {
			t.Fatalf("waterfalls missing %q span:\n%s", span, a.Waterfalls)
		}
	}
	// Every trace is complete: sealed, labelled with its variant, and at
	// least three spans wide (queue → batch → execution).
	for _, tr := range a.Traces {
		if tr.Err != "" {
			t.Fatalf("trace %d finished with error %q", tr.ID, tr.Err)
		}
		if tr.Label == "" {
			t.Fatalf("trace %d has no variant label", tr.ID)
		}
		if len(tr.Spans) < 3 {
			t.Fatalf("trace %d has %d spans, want >= 3: %+v", tr.ID, len(tr.Spans), tr.Spans)
		}
		if tr.TotalMS() <= 0 {
			t.Fatalf("trace %d has non-positive total %v", tr.ID, tr.TotalMS())
		}
	}
	// And the exposition carries the instruments the run must have touched.
	for _, want := range []string{
		"counter gateway.admitted " + strconv.Itoa(total),
		"counter gateway.completed " + strconv.Itoa(total),
		"counter gateway.swaps 1",
		"counter serving.offload.success",
		"histogram gateway.latency_ms",
		"histogram serving.offload.latency_ms",
	} {
		if !strings.Contains(a.Exposition, want) {
			t.Fatalf("exposition missing %q:\n%s", want, a.Exposition)
		}
	}
}
