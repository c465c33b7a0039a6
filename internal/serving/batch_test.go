package serving

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cadmc/internal/tensor"
)

// A batched split inference must return exactly what per-request inference
// returns, item for item, on both the edge-only and offloaded routes.
func TestInferBatchMatchesSequential(t *testing.T) {
	model := testNet(t, 61)
	addr := startServer(t, "batch", model)
	client, err := dialPlain(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	exec := &SplitExecutor{Edge: model, ModelID: "batch", Client: client}
	rng := rand.New(rand.NewSource(62))
	xs := make([]*tensor.Tensor, 6)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
	}
	n := len(model.Model.Layers)
	for _, cut := range []int{2, n - 1} {
		outcomes, err := exec.InferBatch(xs, cut)
		if err != nil {
			t.Fatal(err)
		}
		if len(outcomes) != len(xs) {
			t.Fatalf("got %d outcomes for %d inputs", len(outcomes), len(xs))
		}
		for i, x := range xs {
			want, wantRoute, err := exec.InferRoute(x, cut)
			if err != nil {
				t.Fatal(err)
			}
			got := outcomes[i]
			if got.Err != nil {
				t.Fatalf("cut %d item %d: %v", cut, i, got.Err)
			}
			if got.Route != wantRoute {
				t.Fatalf("cut %d item %d: route %s, want %s", cut, i, got.Route, wantRoute)
			}
			for j := range want {
				if got.Logits[j] != want[j] { //cadmc:allow floateq — bit-exactness is the contract under test
					t.Fatalf("cut %d item %d logit %d differs", cut, i, j)
				}
			}
		}
	}
	st := exec.Stats()
	if st.InFlight != 0 {
		t.Fatalf("drained executor reports %d in flight", st.InFlight)
	}
}

// stallOffloader blocks every Offload until released, exposing the
// in-flight window to assertions.
type stallOffloader struct {
	entered chan struct{}
	release chan struct{}
}

func (s *stallOffloader) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	s.entered <- struct{}{}
	<-s.release
	return make([]float64, 4), nil
}

// Stats must count requests that are inside the executor right now — the
// gateway's drain logic watches exactly this number.
func TestStatsCountInFlightRequests(t *testing.T) {
	model := testNet(t, 63)
	stall := &stallOffloader{entered: make(chan struct{}, 8), release: make(chan struct{})}
	exec := &SplitExecutor{Edge: model, ModelID: "stall", Client: stall}
	rng := rand.New(rand.NewSource(64))
	x := tensor.Randn(rng, 1, 3, 12, 12)

	var wg sync.WaitGroup
	const concurrent = 3
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := exec.InferRoute(x, 2); err != nil {
				t.Errorf("stalled inference failed: %v", err)
			}
		}()
	}
	for i := 0; i < concurrent; i++ {
		<-stall.entered
	}
	if got := exec.Stats().InFlight; got != concurrent {
		t.Fatalf("in flight %d, want %d", got, concurrent)
	}
	close(stall.release)
	wg.Wait()
	st := exec.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in flight after drain: %d", st.InFlight)
	}
	if st.Inferences != concurrent || st.Offloaded != concurrent {
		t.Fatalf("stats %+v", st)
	}
}

func TestSplitStatsString(t *testing.T) {
	s := SplitStats{Inferences: 7, Offloaded: 4, EdgeOnly: 2, Fallbacks: 1, InFlight: 3}
	got := s.String()
	for _, want := range []string{"7 inferences", "4 offloaded", "2 edge-only", "1 fallback", "3 in flight"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary %q missing %q", got, want)
		}
	}
	var sum SplitStats
	sum.Add(s)
	sum.Add(SplitStats{Inferences: 1, EdgeOnly: 1})
	if sum.Inferences != 8 || sum.EdgeOnly != 3 || sum.Offloaded != 4 || sum.InFlight != 3 {
		t.Fatalf("aggregate %+v", sum)
	}
}

func TestInferBatchRejectsBadBatch(t *testing.T) {
	model := testNet(t, 65)
	exec := &SplitExecutor{Edge: model, ModelID: "x"}
	if _, err := exec.InferBatch(nil, 2); err == nil {
		t.Fatal("expected empty-batch error")
	}
	rng := rand.New(rand.NewSource(66))
	xs := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 12, 12)}
	if _, err := exec.InferBatch(xs, 99); err == nil {
		t.Fatal("expected cut-range error")
	}
	if exec.Stats().InFlight != 0 {
		t.Fatal("rejected batch leaked in-flight count")
	}
}
