package gateway

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/integrity"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

// Corrupting a cached variant's weights must quarantine its signature and
// fall back to the next healthy class, and the quarantine must be sticky —
// the deterministic rebuild path must not silently resurrect the signature.
func TestForClassHealthyQuarantinesCorruptVariant(t *testing.T) {
	p := demoProvider(t, 91, nil)
	v1, err := p.ForClass(1)
	if err != nil {
		t.Fatal(err)
	}
	v0, err := p.ForClass(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(v1); err != nil {
		t.Fatalf("pristine variant fails verification: %v", err)
	}

	if _, err := integrity.NewCorruptor(5).Corrupt(v1.Net, integrity.BitFlip); err != nil {
		t.Fatal(err)
	}
	v, served, quarantined, err := p.ForClassHealthy(1)
	if err != nil {
		t.Fatal(err)
	}
	if v != v0 || served != 0 || quarantined != 1 {
		t.Fatalf("fallback: got variant %q class %d quarantined %d, want %q/0/1", v.Sig, served, quarantined, v0.Sig)
	}
	if !p.IsQuarantined(v1.Sig) || p.IsQuarantined(v0.Sig) {
		t.Fatalf("quarantine state: %v", p.Quarantined())
	}
	// Sticky: asking again must not re-verify (and re-quarantine) anything,
	// and must not rebuild pristine weights under the quarantined signature.
	v, served, quarantined, err = p.ForClassHealthy(1)
	if err != nil || v != v0 || served != 0 || quarantined != 0 {
		t.Fatalf("second call: %q/%d/%d/%v", v.Sig, served, quarantined, err)
	}

	// Poison the last healthy class too: now nothing is serveable.
	if _, err := integrity.NewCorruptor(6).Corrupt(v0.Net, integrity.NaNPoison); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := p.ForClassHealthy(1); err == nil {
		t.Fatal("all classes corrupt, ForClassHealthy must fail")
	}
	if !errors.Is(mustVerifyErr(p, v0), integrity.ErrMismatch) {
		t.Fatal("verification error must wrap integrity.ErrMismatch")
	}
	if got := len(p.Quarantined()); got != 2 {
		t.Fatalf("quarantined %d signatures, want 2", got)
	}
}

func mustVerifyErr(p *VariantProvider, v *Variant) error { return p.Verify(v) }

// The swap manager must detect a poisoned variant BEFORE swapping it into
// the request path, quarantine it, and keep serving last-known-good.
func TestSwapManagerRollsBackOnCorruption(t *testing.T) {
	p := demoProvider(t, 93, nil)
	gw, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mon := &scriptedMonitor{steps: []struct {
		untilMS float64
		mbps    float64
	}{
		{untilMS: 100, mbps: 2}, // class 0
		{untilMS: 900, mbps: 9}, // class 1 wanted from t=100 on
	}}
	m, err := NewSwapManager(gw, p, mon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class() != 0 {
		t.Fatalf("initial class %d, want 0", m.Class())
	}
	lastGood := gw.CurrentVariant()

	// Corrupt the class-1 variant in cache, before the regime shift asks
	// for it.
	v1, err := p.ForClass(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := integrity.NewCorruptor(7).Corrupt(v1.Net, integrity.Truncate); err != nil {
		t.Fatal(err)
	}

	swapped, err := m.Poll(150)
	if err != nil {
		t.Fatal(err)
	}
	if swapped {
		t.Fatal("poisoned variant must not be swapped in")
	}
	if gw.CurrentVariant() != lastGood {
		t.Fatal("gateway must keep serving last-known-good")
	}
	if m.Class() != 0 || m.Desired() != 1 {
		t.Fatalf("served class %d desired %d, want 0/1", m.Class(), m.Desired())
	}
	if !p.IsQuarantined(v1.Sig) {
		t.Fatal("corrupt signature not quarantined")
	}
	rep := gw.Report()
	if rep.Quarantines != 1 || rep.Rollbacks != 1 || rep.Swaps != 0 {
		t.Fatalf("counters quarantines=%d rollbacks=%d swaps=%d, want 1/1/0", rep.Quarantines, rep.Rollbacks, rep.Swaps)
	}
	// Degraded steady state: later polls keep rolling back, no churn.
	if swapped, err = m.Poll(250); err != nil || swapped {
		t.Fatalf("degraded poll: swapped=%v err=%v", swapped, err)
	}
	if gw.Report().Quarantines != 1 {
		t.Fatal("quarantine must be counted once, not per poll")
	}
}

// wedgeOffloader blocks its first Offload until released; pass-through
// otherwise. It stands in for a hung connection on one worker's channel.
type wedgeOffloader struct {
	wedge   bool
	entered chan struct{}
	release chan struct{}
}

func (o *wedgeOffloader) Offload(string, int, *tensor.Tensor) ([]float64, error) {
	if o.wedge {
		o.entered <- struct{}{}
		<-o.release
	}
	return make([]float64, 10), nil
}

// A worker wedged mid-batch must be detected by the supervisor, abandoned,
// and replaced; its batch is re-queued onto the replacement and every
// request is answered exactly once — Admitted == Completed + Shed with no
// duplicate deliveries.
func TestSupervisorRestartsWedgedWorker(t *testing.T) {
	clock := faultnet.NewManualClock()
	wedged := &wedgeOffloader{wedge: true, entered: make(chan struct{}, 1), release: make(chan struct{})}
	gw, err := New(Config{
		Workers:        1,
		MaxBatch:       1,
		Clock:          clock,
		StallTimeout:   50 * time.Millisecond, // on the manual clock
		SupervisorPoll: time.Millisecond,      // real time: poll fast
		NewOffloader: func(id int) (serving.Offloader, error) {
			if id == 0 {
				return wedged, nil
			}
			return &wedgeOffloader{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := demoProvider(t, 95, nil)
	v1, err := p.ForClass(1) // partitioned: goes through the offloader
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v1); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}

	chA, err := gw.Submit("a", demoInput(rand.New(rand.NewSource(1))))
	if err != nil {
		t.Fatal(err)
	}
	<-wedged.entered // worker 0 is now wedged holding request A
	clock.Advance(100 * time.Millisecond)

	// The supervisor must notice, restart, and the replacement must answer A.
	resA := <-chA
	if resA.Err != nil {
		t.Fatalf("requeued request: %v", resA.Err)
	}
	// New work flows through the replacement while the original is still
	// wedged.
	chB, err := gw.Submit("b", demoInput(rand.New(rand.NewSource(2))))
	if err != nil {
		t.Fatal(err)
	}
	resB := <-chB
	if resB.Err != nil {
		t.Fatalf("post-restart request: %v", resB.Err)
	}
	if resA.RequestID == resB.RequestID {
		t.Fatal("request IDs must be unique")
	}

	// Unwedge the original so Stop can join it; its late completion of A
	// must lose the settled race, not double-deliver.
	close(wedged.release)
	rep := gw.Stop()

	select {
	case res, ok := <-chA:
		if ok {
			t.Fatalf("request A answered twice: %+v", res)
		}
	default:
	}
	if rep.Restarts != 1 || rep.Requeued != 1 {
		t.Fatalf("restarts=%d requeued=%d, want 1/1", rep.Restarts, rep.Requeued)
	}
	if rep.Admitted != 2 || rep.Completed != 2 || rep.Shed != 0 {
		t.Fatalf("accounting %+v", rep)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("invariant broken: %d != %d + %d", rep.Admitted, rep.Completed, rep.Shed)
	}
}

// countingOffloader is a wedgeOffloader that counts its Close calls.
type countingOffloader struct {
	wedgeOffloader
	closes atomic.Int32
}

func (o *countingOffloader) Close() error {
	o.closes.Add(1)
	return nil
}

// With no CloseOffloader configured, Stop must close every per-worker
// offloader that is an io.Closer exactly once — the live pool's, and the one
// still held by a worker the supervisor abandoned and replaced.
func TestStopClosesEveryOffloaderOnce(t *testing.T) {
	clock := faultnet.NewManualClock()
	var mu sync.Mutex
	var built []*countingOffloader
	gw, err := New(Config{
		Workers:         2,
		MaxBatch:        1,
		PerSessionLimit: -1,
		Clock:           clock,
		StallTimeout:    50 * time.Millisecond,
		SupervisorPoll:  time.Millisecond,
		NewOffloader: func(id int) (serving.Offloader, error) {
			o := &countingOffloader{}
			if id == 0 {
				o.wedge, o.entered, o.release = true, make(chan struct{}, 1), make(chan struct{})
			}
			mu.Lock()
			built = append(built, o)
			mu.Unlock()
			return o, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := demoProvider(t, 99, nil).ForClass(1) // partitioned: goes through the offloader
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v1); err != nil {
		t.Fatal(err)
	}
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	wedged := built[0]
	mu.Unlock()
	// Keep submitting until worker 0 picks one up and wedges on it; worker 1
	// serves the rest.
	rng := rand.New(rand.NewSource(1))
	var pending []<-chan Result
	for claimed := false; !claimed; {
		ch, err := gw.Submit("s", demoInput(rng))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, ch)
		select {
		case <-wedged.entered:
			claimed = true
		case <-time.After(time.Millisecond):
		}
	}
	clock.Advance(100 * time.Millisecond)
	for _, ch := range pending {
		if res := <-ch; res.Err != nil {
			t.Fatalf("request: %v", res.Err)
		}
	}
	close(wedged.release) // let the abandoned worker finish so Stop can join it
	rep := gw.Stop()
	if rep.Restarts < 1 {
		t.Fatalf("restarts = %d, want the wedged worker abandoned", rep.Restarts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(built) < 3 {
		t.Fatalf("built %d offloaders, want the pool's 2 plus a replacement", len(built))
	}
	for i, o := range built {
		if n := o.closes.Load(); n != 1 {
			t.Fatalf("offloader %d closed %d times, want exactly 1", i, n)
		}
	}
}

// An expired deadline budget must complete the request with
// ErrBudgetExceeded — a definitive answer, not a shed or a hang.
func TestRequestBudgetPreShed(t *testing.T) {
	clock := faultnet.NewManualClock()
	p := demoProvider(t, 97, nil)
	v0, err := p.ForClass(0) // edge-resident
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{
		Workers:       1,
		MaxBatch:      4,
		Clock:         clock,
		RequestBudget: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetVariant(v0); err != nil {
		t.Fatal(err)
	}
	// Enqueue BEFORE starting workers, then age the request past its budget:
	// the worker must answer it with ErrBudgetExceeded, never execute it.
	ch, err := gw.Submit("s", demoInput(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(50 * time.Millisecond)
	if err := gw.Start(); err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !errors.Is(res.Err, ErrBudgetExceeded) {
		t.Fatalf("aged request: %v, want ErrBudgetExceeded", res.Err)
	}
	// A fresh request inside its budget is served normally.
	ch2, err := gw.Submit("s", demoInput(rand.New(rand.NewSource(4))))
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch2; res.Err != nil {
		t.Fatalf("fresh request: %v", res.Err)
	}
	rep := gw.Stop()
	if rep.BudgetExpired != 1 || rep.Errored != 1 {
		t.Fatalf("budgetExpired=%d errored=%d, want 1/1", rep.BudgetExpired, rep.Errored)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("invariant broken: %+v", rep)
	}
}
