package accuracy

import (
	"testing"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
)

func TestOracleBaseModelsExact(t *testing.T) {
	o := New()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		model *nn.Model
		want  float64
	}{
		{nn.VGG11(nn.CIFARInput, nn.CIFARClasses), 92.01},
		{nn.AlexNet(nn.CIFARInput, nn.CIFARClasses), 84.08},
	}
	for _, c := range cases {
		got, err := o.Evaluate(c.model, false)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("%s base accuracy = %v, want %v (paper)", c.model.Name, got, c.want)
		}
	}
}

func TestOracleUnknownModel(t *testing.T) {
	o := New()
	m := &nn.Model{Name: "Mystery", Input: nn.CIFARInput, Classes: 10,
		Layers: []nn.Layer{nn.NewFlatten(), nn.NewFC(3*32*32, 10)}}
	if _, err := o.Evaluate(m, false); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestOracleCompressionCostsAccuracy(t *testing.T) {
	o := New()
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	base, err := o.Evaluate(m, false)
	if err != nil {
		t.Fatal(err)
	}
	// Compress one conv with C1.
	idx := -1
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 {
			idx = i
			break
		}
	}
	compressed, _, err := compress.Technique{ID: compress.C1}.Apply(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.Evaluate(compressed, false)
	if err != nil {
		t.Fatal(err)
	}
	if got >= base {
		t.Fatalf("compression must cost accuracy: %v -> %v", base, got)
	}
	if base-got > 3 {
		t.Fatalf("single-technique loss %v too large (paper: tenths of a percent)", base-got)
	}
}

func TestOracleDistillationRecovers(t *testing.T) {
	o := New()
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	idx := -1
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 {
			idx = i
			break
		}
	}
	compressed, _, err := compress.Technique{ID: compress.C1}.Apply(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := o.Evaluate(compressed, false)
	if err != nil {
		t.Fatal(err)
	}
	distilled, err := o.Evaluate(compressed, true)
	if err != nil {
		t.Fatal(err)
	}
	if distilled <= plain {
		t.Fatalf("distillation must recover accuracy: %v vs %v", distilled, plain)
	}
	base, _ := o.Evaluate(m, false)
	if distilled >= base {
		t.Fatal("distillation must not fully erase the loss")
	}
}

func TestOracleEarlyLayersCostMore(t *testing.T) {
	o := New()
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	var convs []int
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 {
			convs = append(convs, i)
		}
	}
	early, _, err := compress.Technique{ID: compress.C1}.Apply(m, convs[0])
	if err != nil {
		t.Fatal(err)
	}
	late, _, err := compress.Technique{ID: compress.C1}.Apply(m, convs[len(convs)-1])
	if err != nil {
		t.Fatal(err)
	}
	// Without jitter the accuracy loss is the modelled loss alone.
	o.NoisePct = 0
	base, err := o.Evaluate(m, false)
	if err != nil {
		t.Fatal(err)
	}
	accEarly, err := o.Evaluate(early, false)
	if err != nil {
		t.Fatal(err)
	}
	accLate, err := o.Evaluate(late, false)
	if err != nil {
		t.Fatal(err)
	}
	if lossEarly, lossLate := base-accEarly, base-accLate; lossEarly <= lossLate {
		t.Fatalf("early-layer compression must cost more: %v vs %v", lossEarly, lossLate)
	}
}

func TestOracleMoreCompressionMoreLoss(t *testing.T) {
	o := New()
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	var one, all []compress.Action
	count := 0
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 {
			a := compress.Action{Layer: i, Technique: compress.Technique{ID: compress.C1}}
			all = append(all, a)
			if count == 0 {
				one = append(one, a)
			}
			count++
		}
	}
	m1, _, err := compress.ApplyPlan(m, one)
	if err != nil {
		t.Fatal(err)
	}
	mAll, _, err := compress.ApplyPlan(m, all)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := o.Evaluate(m1, true)
	aAll, _ := o.Evaluate(mAll, true)
	if aAll >= a1 {
		t.Fatalf("compressing every conv must cost more than one: %v vs %v", aAll, a1)
	}
	// The paper's full edge compression keeps losses around 1–3.5%.
	base, _ := o.Evaluate(m, false)
	if base-aAll > 8 {
		t.Fatalf("full C1 compression loses %v points — calibration too aggressive", base-aAll)
	}
}

func TestOracleDeterministic(t *testing.T) {
	o := New()
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	compressed, _, err := compress.Technique{ID: compress.W1, KeepRatio: 0.5}.Apply(m, 4)
	if err != nil {
		// Layer 4 may not be a conv; find one.
		for i, l := range m.Layers {
			if l.Type == nn.Conv {
				compressed, _, err = compress.Technique{ID: compress.W1, KeepRatio: 0.5}.Apply(m, i)
				if err == nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	a, _ := o.Evaluate(compressed, true)
	b, _ := o.Evaluate(compressed, true)
	if a != b {
		t.Fatalf("oracle must be deterministic: %v vs %v", a, b)
	}
}

func TestOracleFloor(t *testing.T) {
	o := New()
	o.PenaltyPerLayer["W1"] = 1000 // absurd penalty to hit the floor
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	var idx int
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 {
			idx = i
			break
		}
	}
	compressed, _, err := compress.Technique{ID: compress.W1, KeepRatio: 0.5}.Apply(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := o.Evaluate(compressed, false)
	if err != nil {
		t.Fatal(err)
	}
	if acc != o.FloorPct {
		t.Fatalf("accuracy %v must clamp at floor %v", acc, o.FloorPct)
	}
}

func TestOracleValidate(t *testing.T) {
	bad := New()
	bad.Base = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("expected empty-base error")
	}
	bad = New()
	bad.Base["X"] = 150
	if err := bad.Validate(); err == nil {
		t.Fatal("expected out-of-range accuracy error")
	}
	bad = New()
	bad.DistillRecovery = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected distill-recovery error")
	}
}
