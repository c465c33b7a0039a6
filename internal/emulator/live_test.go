package emulator

import (
	"math/rand"
	"testing"
	"time"

	"cadmc/internal/faultnet"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/tensor"
)

func liveNet(t *testing.T, seed int64) *nn.Net {
	t.Helper()
	m := &nn.Model{
		Name:    "livenet",
		Input:   nn.Shape{C: 3, H: 12, W: 12},
		Classes: 4,
		Layers: []nn.Layer{
			nn.NewConv(3, 6, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(6*6*6, 16),
			nn.NewReLU(),
			nn.NewFC(16, 4),
		},
	}
	net, err := nn.NewNet(m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRunLiveGracefulDegradation is the end-to-end acceptance test for the
// resilience layer: a scheduled outage window takes the cloud link down in
// the middle of a replay, and every single inference must still complete —
// offloaded before the outage, edge-only while the circuit is open, and
// offloaded again once the breaker's probe finds the link healed. The whole
// schedule runs on a virtual clock, so the route sequence is deterministic
// and asserted exactly.
func TestRunLiveGracefulDegradation(t *testing.T) {
	model := liveNet(t, 50)
	rng := rand.New(rand.NewSource(51))
	inputs := make([]*tensor.Tensor, 4)
	want := make([]*tensor.Tensor, len(inputs))
	for i := range inputs {
		inputs[i] = tensor.Randn(rng, 1, 3, 12, 12)
		local, err := model.Forward(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = local
	}

	const inferences = 20
	opts := LiveOptions{
		Inferences: inferences, // inference i runs at virtual t = i·LiveStepMS
		Cut:        2,
		Spec: faultnet.Spec{
			Seed:    1,
			Outages: []faultnet.Window{{StartMS: 250, EndMS: 1050}},
		},
		Resilience: serving.ResilientOptions{
			Timeout:          2 * time.Second,
			MaxAttempts:      2,
			BackoffBase:      time.Millisecond,
			BackoffMax:       time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  250 * time.Millisecond,
			Seed:             1,
		},
	}
	res, err := RunLive(model, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}

	// 100% completion is the headline: every inference produced logits, and
	// each one is bit-identical to local execution regardless of route (the
	// wire ships float64 exactly, and the edge fallback runs the same weights).
	if len(res.Routes) != inferences || len(res.Logits) != inferences {
		t.Fatalf("completed %d/%d inferences", len(res.Routes), inferences)
	}
	for i, logits := range res.Logits {
		local := want[i%len(inputs)]
		if len(logits) != local.Len() {
			t.Fatalf("inference %d: %d logits, want %d", i, len(logits), local.Len())
		}
		for j := range logits {
			if logits[j] != local.Data[j] {
				t.Fatalf("inference %d logit %d: %v vs local %v (route %v)",
					i, j, logits[j], local.Data[j], res.Routes[i])
			}
		}
	}

	// The exact deterministic schedule. t=0..200: healthy. t=300: the outage
	// has hit; two attempts fail and trip the threshold-2 breaker (open #1).
	// t=400,500: circuit open, no network touched. t=600: cooldown elapsed,
	// half-open probe fails into the outage (open #2). t=700,800: open.
	// t=900: probe fails again (open #3). t=1000,1100: open (the outage ended
	// at 1050, but the cooldown lags). t=1200: probe succeeds, circuit
	// closes, offloading resumes for the rest of the replay.
	wantRoutes := make([]serving.Route, 0, inferences)
	for i := 0; i < inferences; i++ {
		switch {
		case i <= 2:
			wantRoutes = append(wantRoutes, serving.RouteOffloaded)
		case i <= 11:
			wantRoutes = append(wantRoutes, serving.RouteFallback)
		default:
			wantRoutes = append(wantRoutes, serving.RouteOffloaded)
		}
	}
	for i, r := range res.Routes {
		if r != wantRoutes[i] {
			t.Fatalf("inference %d route = %v, want %v (full: %v)", i, r, wantRoutes[i], res.Routes)
		}
	}

	if res.Stats.Inferences != inferences || res.Stats.Offloaded != 11 || res.Stats.Fallbacks != 9 {
		t.Fatalf("split stats = %+v, want 20 inferences / 11 offloaded / 9 fallbacks", res.Stats)
	}
	ch := res.Channel
	if ch.Offloads != 11 {
		t.Fatalf("channel offloads = %d, want 11", ch.Offloads)
	}
	if ch.BreakerOpens != 3 {
		t.Fatalf("breaker opens = %d, want 3 (initial trip + two failed probes)", ch.BreakerOpens)
	}
	// Retries happen only on the three requests that actually touched the
	// dead link (t=300 and the two failed probes); the open circuit rejects
	// the rest without spending attempts.
	if ch.Retries != 3 {
		t.Fatalf("retries = %d, want 3", ch.Retries)
	}
	// Dial #1 at t=0, plus a replacement for each poisoned codec: second
	// attempt at t=300, probes at t=600, t=900 and t=1200.
	if ch.Redials != 5 {
		t.Fatalf("redials = %d, want 5", ch.Redials)
	}
	if res.FinalBreaker != serving.BreakerClosed {
		t.Fatalf("final breaker = %v, want closed (offloading resumed)", res.FinalBreaker)
	}
}

// TestRunLiveDeterministic replays the same chaos twice and demands identical
// routes, stats and logits — the property that makes fault drills debuggable.
func TestRunLiveDeterministic(t *testing.T) {
	model := liveNet(t, 52)
	rng := rand.New(rand.NewSource(53))
	inputs := []*tensor.Tensor{tensor.Randn(rng, 1, 3, 12, 12)}
	opts := LiveOptions{
		Inferences: 12,
		Cut:        2,
		Spec: faultnet.Spec{
			Seed:    9,
			Outages: []faultnet.Window{{StartMS: 150, EndMS: 450}},
		},
		Resilience: serving.ResilientOptions{
			Timeout:          2 * time.Second,
			MaxAttempts:      2,
			BreakerThreshold: 1,
			BreakerCooldown:  200 * time.Millisecond,
			Seed:             9,
		},
	}
	a, err := RunLive(model, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLive(model, inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats || a.Channel != b.Channel || a.FinalBreaker != b.FinalBreaker {
		t.Fatalf("replays diverged: %+v / %+v vs %+v / %+v", a.Stats, a.Channel, b.Stats, b.Channel)
	}
	for i := range a.Routes {
		if a.Routes[i] != b.Routes[i] {
			t.Fatalf("route %d diverged: %v vs %v", i, a.Routes[i], b.Routes[i])
		}
		for j := range a.Logits[i] {
			if a.Logits[i][j] != b.Logits[i][j] {
				t.Fatalf("logit %d/%d diverged across replays", i, j)
			}
		}
	}
	if a.Stats.Fallbacks == 0 || a.Stats.Offloaded == 0 {
		t.Fatalf("replay must exercise both routes, got %+v", a.Stats)
	}
}

func TestRunLiveValidation(t *testing.T) {
	model := liveNet(t, 54)
	x := tensor.Randn(rand.New(rand.NewSource(55)), 1, 3, 12, 12)
	if _, err := RunLive(nil, []*tensor.Tensor{x}, LiveOptions{}); err == nil {
		t.Fatal("nil model must be rejected")
	}
	if _, err := RunLive(model, nil, LiveOptions{}); err == nil {
		t.Fatal("empty inputs must be rejected")
	}
	bad := LiveOptions{Spec: faultnet.Spec{ResetProb: 2}}
	if _, err := RunLive(model, []*tensor.Tensor{x}, bad); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
}
