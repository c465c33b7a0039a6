package compress

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
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
	out, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Layers) - len(m.Layers); got != 1 {
		t.Fatalf("F1 grew the model by %d layers, want 1 (two FCs for one)", got)
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
	out, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if out.Layers[i].Sparsity != 0.6 || out.Layers[i+1].Sparsity != 0.6 {
		t.Fatal("F2 factors must be sparse")
	}
	f1, err := Technique{ID: F1, RankRatio: 0.35}.Apply(m, i)
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
	out, err := tech.Apply(m, i)
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
	out, err := Technique{ID: C1}.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Layers) - len(m.Layers); got != 1 {
		t.Fatalf("C1 grew the model by %d layers, want 1 (depthwise + pointwise for one conv)", got)
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
	out, err := Technique{ID: C2, Expansion: 2}.Apply(m, target)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(out.Layers) - len(m.Layers); got != 3 {
		t.Fatalf("C2 grew the model by %d layers, want 3 (expand, dw, project, add for one conv)", got)
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
	out, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Layers) != len(m.Layers) || out.Layers[i].Type != nn.Fire {
		t.Fatalf("C3 must yield one Fire layer, got %d layers for %d, type=%s",
			len(out.Layers), len(m.Layers), out.Layers[i].Type)
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
	out, err := Technique{ID: W1, KeepRatio: 0.5}.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Layers) != len(m.Layers) {
		t.Fatalf("W1 changed the layer count %d -> %d", len(m.Layers), len(out.Layers))
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
	if _, err := (Technique{ID: C1}).Apply(m, fcIdx); err == nil {
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
			out, err := tech.Apply(base, i)
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

// Applicable is exact and Apply checks its result with Normalize alone, so
// every applicable action must pass Normalize and every model Normalize
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
				out, err := tech.Apply(base, i)
				if err != nil {
					t.Fatalf("%s: %s at %d is Applicable but Apply refused it: %v", name, tech.ID, i, err)
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
	out, err := tech.Apply(m, i)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Layers) != len(m.Layers) || out.Layers[i].Bits != 8 || out.Layers[i].Tag != "Q1" {
		t.Fatalf("Q1 result wrong: %d layers for %d, bits=%d tag=%q",
			len(out.Layers), len(m.Layers), out.Layers[i].Bits, out.Layers[i].Tag)
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
	out2, err := Technique{ID: Q1}.Apply(m, i)
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
	// A pruned width that reaches an Add through layers that keep the
	// channel count: the ResNet stem feeds the first projection Add's skip
	// through BN and ReLU.
	for _, name := range []string{"ResNet50", "ResNet101", "ResNet152"} {
		res, err := nn.Zoo(name, nn.CIFARInput, nn.CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		if res.Layers[0].Type != nn.Conv || w1.Applicable(res, 0) {
			t.Fatalf("%s: W1 must not prune the stem conv", name)
		}
	}
	// Inside a plan: C2 at 2 adds a residual whose skip is layer 1, so W1
	// at 0 no longer binds.
	chain := &nn.Model{
		Name: "chain", Input: nn.Shape{C: 16, H: 8, W: 8},
		Layers: []nn.Layer{nn.NewConv(16, 16, 3, 1, 1), nn.NewReLU(), nn.NewConv(16, 16, 3, 1, 1)},
	}
	c2 := Technique{ID: C2, Expansion: 2}
	if !w1.Applicable(chain, 0) {
		t.Fatal("W1 must prune a plain chain conv")
	}
	_, applied, err := ApplyPlan(chain, []Action{{Layer: 0, Technique: w1}, {Layer: 2, Technique: c2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 || applied[0].Technique.ID != C2 {
		t.Fatalf("plan applied %v, want C2 alone", applied)
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

// C2 occupies three layers, or four with its residual Add, and
// ApplyWithWeights carries every later layer's weights across that growth.
func TestSpanOfC2Variants(t *testing.T) {
	m := &nn.Model{
		Name: "c2", Input: nn.Shape{C: 3, H: 8, W: 8}, Classes: 4,
		Layers: []nn.Layer{
			nn.NewConv(3, 8, 3, 1, 1),  // 0
			nn.NewReLU(),               // 1
			nn.NewConv(8, 8, 3, 1, 1),  // 2: In == Out, residual
			nn.NewReLU(),               // 3
			nn.NewConv(8, 16, 3, 1, 1), // 4: In != Out, no residual
			nn.NewReLU(),               // 5
			nn.NewFlatten(),            // 6
			nn.NewFC(16*8*8, 4),        // 7
		},
	}
	rng := rand.New(rand.NewSource(5))
	net, err := nn.NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	tech := Technique{ID: C2, Expansion: 2}
	for _, c := range []struct{ site, grow int }{{2, 3}, {4, 2}} {
		out, err := ApplyWithWeights(net, c.site, tech, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(out.Model.Layers) - len(m.Layers); got != c.grow {
			t.Fatalf("C2 at %d grew the model by %d layers, want %d", c.site, got, c.grow)
		}
		if c.grow == 3 && out.Model.Layers[c.site+3].Type != nn.Add {
			t.Fatalf("C2 at %d: want the residual Add as its fourth layer", c.site)
		}
		for j := c.site + 1; j < len(m.Layers); j++ {
			if w := net.Weights[j]; w != nil && !slices.Equal(out.Weights[j+c.grow].Data, w.Data) {
				t.Fatalf("C2 at %d: layer %d's weights not carried to %d", c.site, j, j+c.grow)
			}
		}
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
					if variant, err = tech.Apply(variant, i); err != nil {
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
