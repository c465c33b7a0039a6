package serving

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// fakeBatch answers a micro-batch with fixed logits rows, or with err. It
// reads every activation, as the wire encoder does, and keeps none of them.
type fakeBatch struct {
	rows [][]float64
	err  error
	sum  float64
}

var _ BatchOffloader = (*fakeBatch)(nil)

func (f *fakeBatch) Offload(modelID string, cut int, act *tensor.Tensor) ([]float64, error) {
	rows, err := f.OffloadBatch(modelID, cut, []*tensor.Tensor{act}, 0)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

func (f *fakeBatch) OffloadBatch(_ string, _ int, acts []*tensor.Tensor, _ time.Duration) ([][]float64, error) {
	for _, act := range acts {
		for _, v := range act.Data {
			f.sum += v
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.rows[:len(acts)], nil
}

// TestInferBatchViewFallbackMatchesCopyPath: when the offload of a batch
// whose activations are views into the edge forward's workspace fails as
// unavailable, every item falls back to the edge reading its view, and
// completes bit for bit as the local forward does — through a batched
// client and a per-item one, on the edge Net's own workspace and on a worker
// workspace left dirty by a larger variant. The last case fails a fallback
// that runs its suffix on the worker's own workspace: it would overwrite the
// views of the items still to settle.
func TestInferBatchViewFallbackMatchesCopyPath(t *testing.T) {
	model := testNet(t, 71)
	rng := rand.New(rand.NewSource(72))
	xs := make([]*tensor.Tensor, 5)
	want := make([]*tensor.Tensor, len(xs))
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
		var err error
		if want[i], err = model.Forward(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	larger := largerVariant(t, 75)
	worker := new(nn.Workspace)
	down := &fakeBatch{err: ErrUnavailable}
	for _, c := range []struct {
		name   string
		ws     *nn.Workspace
		client Offloader
	}{
		{"batched, net's workspace", nil, down},
		{"per item, net's workspace", nil, itemOffloader{down}},
		{"batched, dirty worker workspace", worker, down},
	} {
		for _, cut := range []int{0, 2, 7} {
			if c.ws != nil {
				bigXs := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 24, 24), tensor.Randn(rng, 1, 3, 24, 24)}
				if _, err := (&SplitExecutor{Edge: larger}).InferBatch(c.ws, bigXs, len(larger.Model.Layers)-1, 0); err != nil {
					t.Fatal(err)
				}
			}
			exec := &SplitExecutor{Edge: model, ModelID: "m", Client: c.client}
			got, err := exec.InferBatch(c.ws, xs, cut, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xs {
				if got[i].Err != nil || got[i].Route != RouteFallback {
					t.Fatalf("%s cut %d item %d: route %s, err %v; want a fallback", c.name, cut, i, got[i].Route, got[i].Err)
				}
				if len(got[i].Logits) != len(want[i].Data) {
					t.Fatalf("%s cut %d item %d: %d logits, want %d", c.name, cut, i, len(got[i].Logits), len(want[i].Data))
				}
				for j, w := range want[i].Data {
					if math.Float64bits(got[i].Logits[j]) != math.Float64bits(w) {
						t.Fatalf("%s cut %d item %d logit %d: %v, want %v", c.name, cut, i, j, got[i].Logits[j], w)
					}
				}
			}
		}
	}
}

// largerVariant is testNet's architecture over a 24×24 input: every
// activation four times the size.
func largerVariant(t *testing.T, seed int64) *nn.Net {
	t.Helper()
	m := &nn.Model{
		Name:    "servenet-large",
		Input:   nn.Shape{C: 3, H: 24, W: 24},
		Classes: 5,
		Layers: []nn.Layer{
			nn.NewConv(3, 8, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewConv(8, 16, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(16*6*6, 32),
			nn.NewReLU(),
			nn.NewFC(32, 5),
		},
	}
	net, err := nn.NewNet(m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestServerConnectionsOwnTheirWorkspaces: two connections to one registered
// Net complete suffixes concurrently — different cuts and batch sizes, so
// their plans and slabs differ — and every answer is bit-identical to the
// local suffix. Each connection's forwards run in its own workspace and its
// response is written from that workspace's views; a shared one would hand
// one connection the other's logits (and, under -race, report the overlap).
func TestServerConnectionsOwnTheirWorkspaces(t *testing.T) {
	model := testNet(t, 76)
	addr := startServer(t, "m", model)
	rng := rand.New(rand.NewSource(77))
	type job struct {
		cut        int
		acts, want []*tensor.Tensor
	}
	var jobs []job
	for _, c := range []struct{ cut, batch int }{{0, 8}, {2, 3}, {5, 1}, {7, 5}} {
		xs := make([]*tensor.Tensor, c.batch)
		for i := range xs {
			xs[i] = tensor.Randn(rng, 1, 3, 12, 12)
		}
		acts, err := model.ForwardRangeBatch(xs, 0, c.cut+1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.ForwardRangeBatch(acts, c.cut+1, len(model.Model.Layers))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{c.cut, acts, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		client, err := dialPlain(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() { _ = client.Close() }()
			for k := 0; k < 10*len(jobs); k++ {
				j := jobs[(k+g)%len(jobs)]
				rows, err := client.OffloadBatch("m", j.cut, j.acts, 0)
				if err != nil {
					t.Errorf("connection %d cut %d: %v", g, j.cut, err)
					return
				}
				for i, w := range j.want {
					for e, v := range w.Data {
						if math.Float64bits(rows[i][e]) != math.Float64bits(v) {
							t.Errorf("connection %d cut %d item %d logit %d: %v, want %v", g, j.cut, i, e, rows[i][e], v)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
