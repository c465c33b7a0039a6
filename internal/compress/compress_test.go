package compress

import (
	"fmt"
	"hash/fnv"
	"testing"

	"cadmc/internal/nn"
)

func findLayer(m *nn.Model, lt nn.LayerType, minKernel int) int {
	for i, l := range m.Layers {
		if l.Type == lt && l.Kernel >= minKernel {
			return i
		}
	}
	return -1
}

func TestIDString(t *testing.T) {
	if F1.String() != "F1(SVD)" || W1.String() != "W1(FilterPruning)" {
		t.Fatal("technique names wrong")
	}
	if ID(42).String() != "ID(42)" {
		t.Fatal("unknown id rendering wrong")
	}
	if None.Tag() != "" || C3.Tag() != "C3" {
		t.Fatal("tags wrong")
	}
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 9 {
		t.Fatalf("catalog has %d techniques, want 9 (None + Table II's 7 + Q1)", len(cat))
	}
	if cat[0].ID != None {
		t.Fatal("catalog must start with None")
	}
	seen := make(map[ID]bool)
	for _, tech := range cat {
		if seen[tech.ID] {
			t.Fatalf("duplicate technique %s", tech.ID)
		}
		seen[tech.ID] = true
	}
}

// Table II structural contracts: each technique must produce exactly the
// replacement structure the paper's table describes.
func TestF1ReplacesFCWithTwoThinFCs(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	i := findLayer(m, nn.FC, 0)
	tech := Technique{ID: F1, RankRatio: 0.25}
	out, span, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if span != 2 {
		t.Fatalf("span = %d, want 2", span)
	}
	a, b := out.Layers[i], out.Layers[i+1]
	if a.Type != nn.FC || b.Type != nn.FC {
		t.Fatal("F1 must produce two FC layers")
	}
	k := a.Out
	if k != b.In || k >= minInt(m.Layers[i].In, m.Layers[i].Out) {
		t.Fatalf("F1 rank k=%d must be shared and small", k)
	}
	if a.Tag != "F1" || b.Tag != "F1" {
		t.Fatal("F1 layers must carry provenance tags")
	}
	origMACCs, _ := m.MACCs()
	newMACCs, _ := out.MACCs()
	if newMACCs >= origMACCs {
		t.Fatalf("F1 must reduce MACCs: %d -> %d", origMACCs, newMACCs)
	}
}

func TestF2AddsSparsity(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	i := findLayer(m, nn.FC, 0)
	tech := Technique{ID: F2, RankRatio: 0.35, Sparsity: 0.6}
	out, _, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layers[i].Sparsity != 0.6 || out.Layers[i+1].Sparsity != 0.6 {
		t.Fatal("F2 factors must be sparse")
	}
	f1, _, err := Technique{ID: F1, RankRatio: 0.35}.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	f2MACCs, _ := out.MACCs()
	f1MACCs, _ := f1.MACCs()
	if f2MACCs >= f1MACCs {
		t.Fatalf("KSVD (sparse) must cost fewer effective MACCs than dense SVD at equal rank: %d vs %d", f2MACCs, f1MACCs)
	}
}

func TestF3ReplacesWholeHeadWithGAP(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	i := findLayer(m, nn.FC, 0)
	tech := Technique{ID: F3}
	out, _, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one FC must remain, preceded by GAP.
	fcs := 0
	gaps := 0
	for _, l := range out.Layers {
		switch l.Type {
		case nn.FC:
			fcs++
		case nn.GlobalAvgPool:
			gaps++
		}
	}
	if fcs != 1 || gaps != 1 {
		t.Fatalf("after F3: %d FCs and %d GAPs, want 1 and 1", fcs, gaps)
	}
	last := out.Layers[len(out.Layers)-1]
	if last.Type != nn.FC || last.Out != nn.CIFARClasses {
		t.Fatal("F3 head must end in FC to classes")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	// F3 is only applicable at the first FC of an untouched head.
	if tech.Applicable(out, findLayer(out, nn.FC, 0)) {
		t.Fatal("F3 must not re-apply to an already-pooled head")
	}
}

func TestC1SplitsConvIntoDepthwisePlusPointwise(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	i := findLayer(m, nn.Conv, 3)
	out, span, err := Technique{ID: C1}.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if span != 2 {
		t.Fatalf("span = %d, want 2", span)
	}
	dw, pw := out.Layers[i], out.Layers[i+1]
	if dw.Type != nn.DepthwiseConv || dw.Kernel != 3 {
		t.Fatalf("first layer = %s,k=%d, want 3x3 depthwise", dw.Type, dw.Kernel)
	}
	if pw.Type != nn.Conv || pw.Kernel != 1 {
		t.Fatalf("second layer = %s,k=%d, want 1x1 pointwise", pw.Type, pw.Kernel)
	}
	origMACCs, _ := m.MACCs()
	newMACCs, _ := out.MACCs()
	if newMACCs >= origMACCs {
		t.Fatalf("C1 must reduce MACCs: %d -> %d", origMACCs, newMACCs)
	}
}

func TestC2AddsExpandProjectAndResidual(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	// Find a stride-1 conv with In == Out so the residual link applies.
	target := -1
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 && l.In == l.Out && l.Stride == 1 && i > 0 {
			target = i
			break
		}
	}
	if target == -1 {
		t.Skip("no residual-eligible conv in VGG11")
	}
	out, span, err := Technique{ID: C2, Expansion: 2}.Apply(m, target)
	if err != nil {
		t.Fatal(err)
	}
	if span != 4 {
		t.Fatalf("span = %d, want 4 (expand, dw, project, add)", span)
	}
	if out.Layers[target].Type != nn.Conv || out.Layers[target].Kernel != 1 {
		t.Fatal("C2 must start with a 1x1 expand conv")
	}
	if out.Layers[target+1].Type != nn.DepthwiseConv {
		t.Fatal("C2 second layer must be depthwise")
	}
	if out.Layers[target+3].Type != nn.Add {
		t.Fatal("C2 must add a residual link when shapes permit")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestC3ProducesFire(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	tech := Technique{ID: C3, SqueezeRatio: 0.125}
	i := -1
	for j := range m.Layers {
		if tech.Applicable(m, j) {
			i = j
			break
		}
	}
	if i == -1 {
		t.Fatal("C3 applicable nowhere on VGG11")
	}
	out, span, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if span != 1 || out.Layers[i].Type != nn.Fire {
		t.Fatalf("C3 must yield one Fire layer, got span=%d type=%s", span, out.Layers[i].Type)
	}
	if out.Layers[i].Squeeze >= out.Layers[i].Out {
		t.Fatal("Fire squeeze must be narrower than its output")
	}
	origMACCs, _ := m.MACCs()
	newMACCs, _ := out.MACCs()
	if newMACCs >= origMACCs {
		t.Fatalf("C3 must reduce MACCs: %d -> %d", origMACCs, newMACCs)
	}
}

func TestW1PrunesFiltersAndRepairsDownstream(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	i := findLayer(m, nn.Conv, 3)
	out, span, err := Technique{ID: W1, KeepRatio: 0.5}.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if span != 1 {
		t.Fatalf("span = %d, want 1", span)
	}
	if out.Layers[i].Out != m.Layers[i].Out/2 {
		t.Fatalf("pruned Out = %d, want %d", out.Layers[i].Out, m.Layers[i].Out/2)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("pruning left the model inconsistent: %v", err)
	}
}

func TestApplicabilityMatrix(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	convIdx := findLayer(m, nn.Conv, 3)
	fcIdx := findLayer(m, nn.FC, 0)
	for _, tech := range Catalog() {
		switch tech.ID {
		case None:
			if !tech.Applicable(m, convIdx) || !tech.Applicable(m, fcIdx) {
				t.Fatal("None must always be applicable")
			}
		case F1, F2, F3:
			if tech.Applicable(m, convIdx) {
				t.Fatalf("%s must not apply to conv layers", tech.ID)
			}
			if !tech.Applicable(m, fcIdx) {
				t.Fatalf("%s must apply to the FC head", tech.ID)
			}
		case C1, C2, W1:
			if !tech.Applicable(m, convIdx) {
				t.Fatalf("%s must apply to 3x3 convs", tech.ID)
			}
			if tech.Applicable(m, fcIdx) {
				t.Fatalf("%s must not apply to FC layers", tech.ID)
			}
		case Q1:
			if !tech.Applicable(m, convIdx) || !tech.Applicable(m, fcIdx) {
				t.Fatal("Q1 must apply to conv and FC layers")
			}
		case C3:
			// C3 skips the narrow stem but must bind somewhere in the trunk.
			found := false
			for i := range m.Layers {
				if tech.Applicable(m, i) {
					found = true
					break
				}
			}
			if !found {
				t.Fatal("C3 must apply somewhere on VGG11")
			}
			if tech.Applicable(m, convIdx) {
				t.Fatal("C3 must skip the narrow stem conv")
			}
			if tech.Applicable(m, fcIdx) {
				t.Fatal("C3 must not apply to FC layers")
			}
		}
	}
	// Out of range indices are never applicable.
	if (Technique{ID: C1}).Applicable(m, -1) || (Technique{ID: C1}).Applicable(m, 10000) {
		t.Fatal("out-of-range applicability")
	}
}

func TestApplyRejectsInapplicable(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	fcIdx := findLayer(m, nn.FC, 0)
	if _, _, err := (Technique{ID: C1}).Apply(m, fcIdx); err == nil {
		t.Fatal("expected inapplicability error")
	}
}

func TestAllTechniquesPreserveClassifierContract(t *testing.T) {
	base := nn.AlexNet(nn.CIFARInput, nn.CIFARClasses)
	for _, tech := range Catalog() {
		if tech.ID == None {
			continue
		}
		applied := false
		for i := range base.Layers {
			if !tech.Applicable(base, i) {
				continue
			}
			out, _, err := tech.Apply(base, i)
			if err != nil {
				t.Fatalf("%s at %d: %v", tech.ID, i, err)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("%s at %d: %v", tech.ID, i, err)
			}
			applied = true
			break
		}
		if !applied {
			t.Fatalf("%s never applicable on AlexNet", tech.ID)
		}
	}
}

// Apply checks its result with Normalize alone, so every model Normalize
// accepts must also pass Validate: every zoo model × every technique × every
// layer it applies to.
func TestNormalizeAcceptsOnlyValidModels(t *testing.T) {
	applied := 0
	for _, name := range []string{"VGG11", "VGG19", "AlexNet", "ResNet50", "ResNet101", "ResNet152"} {
		base, err := nn.Zoo(name, nn.CIFARInput, nn.CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		for _, tech := range Catalog() {
			for i := range base.Layers {
				if tech.ID == None || !tech.Applicable(base, i) {
					continue
				}
				out, _, err := tech.Apply(base, i)
				if err != nil {
					continue // Normalize refused it
				}
				if err := out.Validate(); err != nil {
					t.Fatalf("%s: %s at %d passes Normalize but not Validate: %v", name, tech.ID, i, err)
				}
				applied++
			}
		}
	}
	if applied == 0 {
		t.Fatal("no technique applied anywhere in the zoo")
	}
}

func TestApplyPlanDescendingOrder(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	var actions []Action
	// Compress two convs and one FC at once.
	convSeen := 0
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 && convSeen < 2 {
			actions = append(actions, Action{Layer: i, Technique: Technique{ID: C1}})
			convSeen++
		}
		if l.Type == nn.FC {
			actions = append(actions, Action{Layer: i, Technique: Technique{ID: F1, RankRatio: 0.25}})
			break
		}
	}
	out, applied, err := ApplyPlan(m, actions)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 3 {
		t.Fatalf("applied %d actions, want 3", len(applied))
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	origMACCs, _ := m.MACCs()
	newMACCs, _ := out.MACCs()
	if newMACCs >= origMACCs {
		t.Fatal("plan must reduce MACCs")
	}
}

func TestApplyPlanSkipsConsumedSites(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	fcIdx := findLayer(m, nn.FC, 0)
	// F3 consumes the whole head; a later F1 at a deeper FC must be skipped.
	var deeperFC int
	for i := fcIdx + 1; i < len(m.Layers); i++ {
		if m.Layers[i].Type == nn.FC {
			deeperFC = i
			break
		}
	}
	actions := []Action{
		{Layer: fcIdx, Technique: Technique{ID: F3}},
		{Layer: deeperFC, Technique: Technique{ID: F1, RankRatio: 0.25}},
	}
	out, applied, err := ApplyPlan(m, actions)
	if err != nil {
		t.Fatal(err)
	}
	// Descending order applies F1 first (deeper), then F3 wipes the head.
	// Either way the result must validate and contain a GAP.
	found := false
	for _, l := range out.Layers {
		if l.Type == nn.GlobalAvgPool {
			found = true
		}
	}
	if !found {
		t.Fatal("F3 did not take effect")
	}
	if len(applied) == 0 {
		t.Fatal("no actions applied")
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyPlanNilModel(t *testing.T) {
	if _, _, err := ApplyPlan(nil, nil); err == nil {
		t.Fatal("expected nil-model error")
	}
}

func TestQ1Quantization(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	i := findLayer(m, nn.Conv, 3)
	tech := Technique{ID: Q1, Bits: 8}
	out, span, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if span != 1 || out.Layers[i].Bits != 8 || out.Layers[i].Tag != "Q1" {
		t.Fatalf("Q1 result wrong: span=%d bits=%d tag=%q", span, out.Layers[i].Bits, out.Layers[i].Tag)
	}
	// MACCs unchanged, storage reduced.
	origMACCs, _ := m.MACCs()
	newMACCs, _ := out.MACCs()
	if origMACCs != newMACCs {
		t.Fatal("Q1 must not change MACCs")
	}
	origBytes, err := m.ParamBytes()
	if err != nil {
		t.Fatal(err)
	}
	newBytes, err := out.ParamBytes()
	if err != nil {
		t.Fatal(err)
	}
	if newBytes >= origBytes {
		t.Fatalf("Q1 must shrink storage: %d -> %d bytes", origBytes, newBytes)
	}
	// Re-quantising the same layer is not applicable.
	if tech.Applicable(out, i) {
		t.Fatal("Q1 must not re-apply to a quantised layer")
	}
	// Default bits when unset.
	out2, _, err := Technique{ID: Q1}.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Layers[i].Bits != 8 {
		t.Fatalf("default bits = %d, want 8", out2.Layers[i].Bits)
	}
}

func TestTechniqueString(t *testing.T) {
	if (Technique{ID: C1}).String() != "C1(MobileNet)" {
		t.Fatal("technique String wrong")
	}
}

func TestW1SkipsResidualFeeders(t *testing.T) {
	// Pruning a conv whose output feeds a residual add would desynchronise
	// the operands; applicability must exclude those sites.
	m := &nn.Model{
		Name: "res", Input: nn.Shape{C: 16, H: 8, W: 8}, Classes: 0,
		Layers: []nn.Layer{
			nn.NewConv(16, 16, 3, 1, 1), // 0: skip source
			nn.NewConv(16, 16, 3, 1, 1), // 1: inside the span
			nn.NewAdd(0),                // 2
			nn.NewConv(16, 16, 3, 1, 1), // 3: free
		},
	}
	w1 := Technique{ID: W1, KeepRatio: 0.5}
	if w1.Applicable(m, 0) {
		t.Fatal("W1 must not prune the skip source")
	}
	if w1.Applicable(m, 1) {
		t.Fatal("W1 must not prune inside a residual span")
	}
	if !w1.Applicable(m, 3) {
		t.Fatal("W1 must prune convs outside residual spans")
	}
}

func TestF3RequiresFlattenHead(t *testing.T) {
	// An FC mid-chain without a Flatten directly heading it is not an F3 site.
	m := &nn.Model{
		Name: "flat", Input: nn.Shape{C: 64, H: 1, W: 1}, Classes: 10,
		Layers: []nn.Layer{
			nn.NewFC(64, 32),
			nn.NewReLU(),
			nn.NewFC(32, 10),
		},
	}
	if (Technique{ID: F3}).Applicable(m, 0) {
		t.Fatal("F3 must require a Flatten before the head")
	}
}

func TestSpanOfC2Variants(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	// A conv with In != Out gets no residual: span 3.
	var grow int
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 && l.In != l.Out && i > 0 {
			grow = i
			break
		}
	}
	tech := Technique{ID: C2, Expansion: 2}
	out, span, err := tech.Apply(m, grow)
	if err != nil {
		t.Fatal(err)
	}
	if span != 3 {
		t.Fatalf("span = %d, want 3 (no residual when In != Out)", span)
	}
	if got := spanOf(out, grow, tech); got != 3 {
		t.Fatalf("spanOf = %d, want 3", got)
	}
	// And with a residual: span 4.
	var same int
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 && l.In == l.Out && l.Stride == 1 && i > 0 {
			same = i
			break
		}
	}
	out2, span2, err := tech.Apply(m, same)
	if err != nil {
		t.Fatal(err)
	}
	if span2 != 4 {
		t.Fatalf("span = %d, want 4", span2)
	}
	if got := spanOf(out2, same, tech); got != 4 {
		t.Fatalf("spanOf = %d, want 4", got)
	}
	if got := spanOf(out, grow, Technique{ID: C1}); got != 2 {
		t.Fatalf("spanOf(C1) = %d, want 2", got)
	}
	if got := spanOf(out, grow, Technique{ID: W1}); got != 1 {
		t.Fatalf("spanOf(W1) = %d, want 1", got)
	}
}

// nn.(*Model).Hash keys the memo pool and seeds the accuracy oracle's
// jitter, so its value is pinned: FNV-64a of the stream the fmt-based digest
// wrote, for every zoo model and a variant of each that carries every
// technique the model admits (sparsity, bit width and tag fields included).
func TestModelHashPinnedToFmtStream(t *testing.T) {
	fmtHash := func(m *nn.Model) uint64 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%dx%dx%d|%d|", m.Input.C, m.Input.H, m.Input.W, m.Classes)
		for i, l := range m.Layers {
			fmt.Fprintf(h, "%d:%s;%d;%d;", i, l.String(), l.In, l.SkipFrom)
		}
		return h.Sum64()
	}
	var sparse, quantised, tagged bool
	for _, name := range []string{"VGG11", "VGG19", "AlexNet", "ResNet50", "ResNet101", "ResNet152"} {
		m, err := nn.Zoo(name, nn.CIFARInput, nn.CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		variant := m
		for _, tech := range Catalog() {
			for i := range variant.Layers {
				if tech.ID != None && tech.Applicable(variant, i) {
					if variant, _, err = tech.Apply(variant, i); err != nil {
						t.Fatalf("%s: %s at %d: %v", name, tech.ID, i, err)
					}
					break
				}
			}
		}
		if variant == m {
			t.Fatalf("%s: no technique applied", name)
		}
		for _, l := range variant.Layers {
			sparse = sparse || l.Sparsity > 0
			quantised = quantised || l.Bits > 0
			tagged = tagged || l.Tag != ""
		}
		for _, mm := range []*nn.Model{m, variant} {
			if got, want := mm.Hash(), fmtHash(mm); got != want {
				t.Errorf("%s (%d layers): Hash %#x, fmt stream %#x", name, len(mm.Layers), got, want)
			}
		}
	}
	if !sparse || !quantised || !tagged {
		t.Fatalf("variants cover sparsity %v, bit width %v, tag %v; want all", sparse, quantised, tagged)
	}
}
