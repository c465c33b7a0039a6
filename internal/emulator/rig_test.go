package emulator

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settlesAt fails the test unless the goroutine count comes back down to
// before within a bounded wait.
func settlesAt(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// A script that bails out after the gateway started — a failed submit, a
// poll error, a gate nobody claimed — leaves through the deferred close with
// requests still in flight. close must stop the worker pool, the supervisor
// and the cloud, not just the listener: the goroutine count returns to where
// it started.
func TestRigCloseLeavesNoGoroutines(t *testing.T) {
	abandon := func() {
		r, err := newRig(rigConfig{
			seed:         5,
			sessions:     4,
			phaseMbps:    IntegrityPhaseMbps, // phase 0 offloads: the workers dial the cloud
			perPhase:     8,
			workers:      4,
			maxBatch:     2,
			stallTimeout: time.Minute, // supervisor running, never firing
		})
		if err != nil {
			t.Fatal(err)
		}
		r.submit(0, 8)
		if r.err != nil {
			t.Fatal(r.err)
		}
		// No drain: the requests are queued or executing when the script "fails".
		rep := r.close().Report
		if rep.Admitted != 8 || rep.Admitted != rep.Completed+rep.Shed {
			t.Fatalf("close did not settle what was submitted: %+v", rep)
		}
		if again := r.close().Report; again != rep {
			t.Fatalf("second close acted: %+v then %+v", rep, again)
		}
	}
	abandon() // starts what lives as long as the process: internal/parallel's worker pool
	before := runtime.NumGoroutine()
	abandon()
	settlesAt(t, before)
}

// newRig's own failures come after the cloud is up: one session gives a
// queue of 6 under batches of 8, which gateway.New refuses. The replay must
// report that error — not trip over its own cleanup — and leave nothing
// running.
func TestNewRigFailureStopsTheCloud(t *testing.T) {
	before := runtime.NumGoroutine()
	res, err := RunGateway(GatewayOptions{Sessions: 1})
	if err == nil || !strings.Contains(err.Error(), "queue capacity") {
		t.Fatalf("RunGateway with one session: result %v, error %v; want the queue-capacity error", res, err)
	}
	settlesAt(t, before)
}
