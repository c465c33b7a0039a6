package core

import (
	"testing"

	"cadmc/internal/accuracy"
	"cadmc/internal/compress"
	"cadmc/internal/latency"
	"cadmc/internal/nn"
)

func newTestProblem(t *testing.T, model *nn.Model) *Problem {
	t.Helper()
	est, err := latency.NewEstimator(latency.Phone(), latency.CloudServer(), latency.DefaultTransferModel())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(model, est, accuracy.New(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProblemValidation(t *testing.T) {
	est, err := latency.NewEstimator(latency.Phone(), latency.CloudServer(), latency.DefaultTransferModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(nil, est, accuracy.New(), 3); err == nil {
		t.Fatal("expected nil-model error")
	}
	bad := &nn.Model{Name: "bad", Input: nn.CIFARInput, Classes: 10,
		Layers: []nn.Layer{nn.NewFC(5, 10)}}
	if _, err := NewProblem(bad, est, accuracy.New(), 3); err == nil {
		t.Fatal("expected invalid-model error")
	}
}

func TestProblemEvaluateAndMemo(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	cand := Candidate{Model: p.Base.Clone(), Cut: len(p.Base.Layers) - 1}
	m1, err := p.Evaluate(cand, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m1.AccuracyPct != 92.01 {
		t.Fatalf("uncompressed accuracy = %v, want 92.01", m1.AccuracyPct)
	}
	if m1.LatencyMS <= 0 || m1.Reward <= 0 {
		t.Fatalf("bad metrics %+v", m1)
	}
	hits0, _, _ := p.Memo.Stats()
	m2, err := p.Evaluate(cand, 10)
	if err != nil {
		t.Fatal(err)
	}
	hits1, _, _ := p.Memo.Stats()
	if hits1 != hits0+1 {
		t.Fatal("second evaluation must hit the memory pool")
	}
	if m1 != m2 {
		t.Fatal("memoised metrics must be identical")
	}
}

// The memo pool keys bandwidth finely enough that two bandwidths 0.3 Mbps
// apart, the second evaluated with the first already pooled, still get the
// different rewards their transfer times imply.
func TestEvaluateMemoKeepsCloseBandwidthsApart(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	cand, err := p.ComposeBranch(-1, nil) // the raw input crosses the network
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.9, 1.1, 2.2, 4.6, 7.9} {
		lo, err := p.Evaluate(cand, w)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := p.Evaluate(cand, w+0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !(hi.Reward > lo.Reward) {
			t.Fatalf("reward at %.1f Mbps %v, at %.1f Mbps %v: want the faster link to score higher",
				w, lo.Reward, w+0.3, hi.Reward)
		}
	}
}

func TestMemoPoolDisable(t *testing.T) {
	mp := NewMemoPool()
	mp.Disable()
	mp.Put(memoKey(1, 2, 3), Metrics{Reward: 5})
	if _, ok := mp.Get(memoKey(1, 2, 3)); ok {
		t.Fatal("disabled pool must not cache")
	}
	_, misses, size := mp.Stats()
	if misses == 0 || size != 0 {
		t.Fatal("disabled pool stats wrong")
	}
}

func TestComposeBranchVariants(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	n := len(p.Base.Layers)

	allCloud, err := p.ComposeBranch(-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allCloud.Cut != -1 {
		t.Fatalf("all-cloud cut = %d", allCloud.Cut)
	}

	allEdge, err := p.ComposeBranch(n-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allEdge.Cut != n-1 {
		t.Fatalf("all-edge cut = %d", allEdge.Cut)
	}

	// Mid cut with a C1 compression on the first conv: the composed cut
	// must shift by the inserted layer.
	cuts, err := p.Base.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	mid := cuts[len(cuts)/2]
	actions := []compress.Action{{Layer: 0, Technique: compress.Technique{ID: compress.C1}}}
	cand, err := p.ComposeBranch(mid, actions)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Cut != mid+1 {
		t.Fatalf("composed cut = %d, want %d (one inserted layer)", cand.Cut, mid+1)
	}
	if err := cand.Model.Validate(); err != nil {
		t.Fatal(err)
	}
	// The cloud tail must be inherited unmodified.
	if len(cand.Model.Layers) != n+1 {
		t.Fatalf("composed model has %d layers, want %d", len(cand.Model.Layers), n+1)
	}

	if _, err := p.ComposeBranch(-5, nil); err == nil {
		t.Fatal("expected cut-range error")
	}
}

func TestPartitionMaskLegality(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	mask, err := p.partitionMask()
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.Base.Layers)
	if len(mask) != n+2 {
		t.Fatalf("mask length %d, want %d", len(mask), n+2)
	}
	if !mask[n] {
		t.Fatal("no-partition must always be legal")
	}
	if !mask[n+1] {
		t.Fatal("all-cloud must always be legal")
	}
	// A conv immediately followed by BN must not be a legal cut.
	for i := 0; i < n-1; i++ {
		if p.Base.Layers[i].Type == nn.Conv && p.Base.Layers[i+1].Type == nn.BatchNorm && mask[i] {
			t.Fatalf("cut %d splits a fused conv+BN pair", i)
		}
	}
}

func TestCompressionMasksMatchApplicability(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	masks := p.compressionMasks(p.Base)
	for i := range p.Base.Layers {
		for j, tech := range p.Techniques {
			if masks[i][j] != tech.Applicable(p.Base, i) {
				t.Fatalf("mask[%d][%d] disagrees with applicability", i, j)
			}
		}
		if !masks[i][0] {
			t.Fatalf("None must be allowed at layer %d", i)
		}
	}
}

func TestActionsForSkipsNone(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	idx := make([]int, 4) // all zeros = None
	if got := p.actionsFor(idx); len(got) != 0 {
		t.Fatalf("None actions must be dropped, got %d", len(got))
	}
	idx[2] = 4 // some technique
	got := p.actionsFor(idx)
	if len(got) != 1 || got[0].Layer != 2 {
		t.Fatalf("actionsFor wrong: %+v", got)
	}
}

func TestEncodeLayers(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	seq := encodeLayers(m.Layers, 10)
	if len(seq) != len(m.Layers) {
		t.Fatal("sequence length mismatch")
	}
	for _, f := range seq {
		if len(f) != featureDim {
			t.Fatalf("feature dim %d, want %d", len(f), featureDim)
		}
	}
	// Bandwidth must influence the features (the controllers condition on W).
	seq2 := encodeLayers(m.Layers, 100)
	if seq[0][featureDim-1] == seq2[0][featureDim-1] {
		t.Fatal("bandwidth feature must vary with W")
	}
	// One-hot type: exactly one of the first 12 entries set.
	ones := 0
	for i := 0; i < 12; i++ {
		if seq[0][i] == 1 {
			ones++
		}
	}
	if ones != 1 {
		t.Fatalf("type one-hot has %d ones", ones)
	}
}
