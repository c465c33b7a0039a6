package emulator

import (
	"testing"

	"cadmc/internal/gateway"
	"cadmc/internal/network"
	"cadmc/internal/nn"
)

// The deterministic end-to-end gateway replay: 64 sessions, two hot-swaps
// performed while requests are in flight, exact accounting, and every logit
// bit-identical to an out-of-band recompute. This is the test
// scripts/check.sh soaks under -race -count=2.
func TestGatewayEndToEndAcrossHotSwaps(t *testing.T) {
	opts := GatewayOptions{
		Sessions:      64,
		Seed:          7,
		StraddleSwaps: true,
	}
	res, err := RunGateway(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts = res.Options
	total := int64(RequestsPerSession * opts.Sessions * len(GatewayPhaseMbps))

	rep := res.Report
	if rep.Admitted != total || rep.Completed != total || rep.Shed != 0 {
		t.Fatalf("accounting admitted=%d completed=%d shed=%d, want %d/%d/0",
			rep.Admitted, rep.Completed, rep.Shed, total, total)
	}
	if rep.Admitted != rep.Completed+rep.Shed {
		t.Fatalf("invariant broken: %d != %d + %d", rep.Admitted, rep.Completed, rep.Shed)
	}
	if rep.Errored != 0 {
		t.Fatalf("%d requests errored", rep.Errored)
	}
	if res.Swaps != 2 || rep.Swaps != 2 {
		t.Fatalf("swaps: manager %d, gateway %d, want 2/2", res.Swaps, rep.Swaps)
	}
	if rep.Routes.InFlight != 0 {
		t.Fatalf("drained gateway reports in-flight work: %s", rep.Routes)
	}
	if rep.Routes.Inferences != total {
		t.Fatalf("route stats count %d, want %d", rep.Routes.Inferences, total)
	}
	if got := int64(len(res.Records)); got != total {
		t.Fatalf("%d records, want %d — a request was dropped", got, total)
	}

	// Out-of-band recompute: an identically seeded provider rebuilds every
	// variant bit-identically, and each record's VariantSig pins the chain
	// that served it.
	tree, err := gateway.DemoTree(ClassMbps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gateway.NewVariantProvider(tree, opts.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]*nn.Net{}
	sigForClass := map[int]string{}
	for k := range ClassMbps {
		v, err := ref.ForClass(k)
		if err != nil {
			t.Fatal(err)
		}
		nets[v.Sig] = v.Net
		sigForClass[k] = v.Sig
	}
	if len(res.SigCounts) != 2 {
		t.Fatalf("expected both variants to serve, got %v", res.SigCounts)
	}
	sessions := map[string]bool{}
	for i, rec := range res.Records {
		sessions[rec.Session] = true
		net, ok := nets[rec.Result.VariantSig]
		if !ok {
			t.Fatalf("record %d served by unknown variant %q", i, rec.Result.VariantSig)
		}
		want, err := net.Forward(rec.Input)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Result.Logits) != len(want.Data) {
			t.Fatalf("record %d: %d logits, want %d", i, len(rec.Result.Logits), len(want.Data))
		}
		for j := range want.Data {
			if rec.Result.Logits[j] != want.Data[j] { //cadmc:allow floateq — bit-exactness is the contract under test
				t.Fatalf("record %d logit %d differs from recompute on variant %q", i, j, rec.Result.VariantSig)
			}
		}
		// Requests submitted after a phase's swap poll are deterministically
		// served by that phase's variant.
		if rec.SecondHalf {
			k := network.Classify(ClassMbps, GatewayPhaseMbps[rec.Phase])
			if want := sigForClass[k]; rec.Result.VariantSig != want {
				t.Fatalf("record %d (phase %d, post-swap) served by %q, want %q",
					i, rec.Phase, rec.Result.VariantSig, want)
			}
		}
	}
	if len(sessions) < 64 {
		t.Fatalf("only %d distinct sessions, want >= 64", len(sessions))
	}
	if rep.Batches <= 0 || rep.MeanBatch < 1 {
		t.Fatalf("batching never engaged: %d batches, mean %.2f", rep.Batches, rep.MeanBatch)
	}
}

// The non-straddling mode must also hold the accounting invariant.
func TestGatewayRunDrainedPhases(t *testing.T) {
	res, err := RunGateway(GatewayOptions{
		Sessions: 8,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Admitted != rep.Completed+rep.Shed || rep.Shed != 0 {
		t.Fatalf("accounting %+v", rep)
	}
	if res.Swaps != 2 {
		t.Fatalf("swaps %d, want 2", res.Swaps)
	}
	// Every phase drains before the next poll, so the serving variant is
	// deterministic for every request, not just the post-poll half.
	tree, err := gateway.DemoTree(ClassMbps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gateway.NewVariantProvider(tree, res.Options.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Records {
		if rec.Result.Err != nil {
			t.Fatalf("record %d: %v", i, rec.Result.Err)
		}
		k := network.Classify(ClassMbps, GatewayPhaseMbps[rec.Phase])
		v, err := ref.ForClass(k)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Result.VariantSig != v.Sig {
			t.Fatalf("record %d (phase %d) served by %q, want %q", i, rec.Phase, rec.Result.VariantSig, v.Sig)
		}
	}
}
