package compress

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cadmc/internal/nn"
)

// referenceFeedsAdd is feedsAdd before it was exact: it refused W1 inside a
// residual span or at an Add's skip source, and left a pruned width that
// reaches an Add through channel-preserving layers to the trial below.
func referenceFeedsAdd(m *nn.Model, i int) bool {
	for j, l := range m.Layers {
		if l.Type != nn.Add {
			continue
		}
		if l.SkipFrom == i || (i < j && i >= l.SkipFrom) {
			return true
		}
	}
	return false
}

// applyPlanReference is the per-action path ApplyPlan replaced: the same
// descending order, but every action that passes the old applicability test
// is tried on a fresh copy, normalised on its own, and skipped when
// Normalize refuses it. It also counts those trial refusals.
func applyPlanReference(m *nn.Model, actions []Action) (*nn.Model, []Action, int) {
	ordered := make([]Action, len(actions))
	copy(ordered, actions)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Layer > ordered[j].Layer })
	cur := m.Clone()
	var applied []Action
	refused := 0
	for _, a := range ordered {
		t := a.Technique
		if t.ID == None || !t.Applicable(cur, a.Layer) && !(t.ID == W1 && referenceW1(cur, a.Layer)) {
			continue
		}
		next := cur.Clone()
		if t.apply(next, a.Layer) != nil || next.Normalize() != nil {
			refused++
			continue
		}
		cur = next
		applied = append(applied, a)
	}
	return cur, applied, refused
}

// referenceW1 is W1's applicability under referenceFeedsAdd.
func referenceW1(m *nn.Model, i int) bool {
	if i < 0 || i >= len(m.Layers) {
		return false
	}
	l := m.Layers[i]
	return l.Type == nn.Conv && l.Tag == "" && l.Out >= 4 && !referenceFeedsAdd(m, i)
}

// ApplyPlan (one copy, Applicable alone decides, one Normalize) must build
// exactly what the per-action trial path built: the same layers, hash and
// applied list, on seeded random plans over every prefix of every zoo model
// (the full model, with its classifier contract, included). The input model
// must come back untouched.
func TestApplyPlanMatchesPerActionReference(t *testing.T) {
	const plansPerCut = 10
	catalog := Catalog()
	rng := rand.New(rand.NewSource(47))
	plans, bound, refused := 0, 0, 0
	for _, name := range []string{"VGG11", "VGG19", "AlexNet", "ResNet50", "ResNet101", "ResNet152"} {
		base, err := nn.Zoo(name, nn.CIFARInput, nn.CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		n := len(base.Layers)
		for cut := 0; cut < n; cut++ {
			edge := &nn.Model{Name: base.Name, Input: base.Input, Layers: base.Layers[:cut+1]}
			if cut == n-1 {
				edge.Classes = base.Classes
			}
			for k := 0; k < plansPerCut; k++ {
				density := rng.Float64()
				var plan []Action
				for i := range edge.Layers {
					if rng.Float64() < density {
						plan = append(plan, Action{Layer: i, Technique: catalog[rng.Intn(len(catalog))]})
					}
				}
				snapshot := slices.Clone(base.Layers)
				got, applied, err := ApplyPlan(edge, plan)
				if err != nil {
					t.Fatalf("%s cut %d plan %v: %v", name, cut, plan, err)
				}
				want, wantApplied, trialRefused := applyPlanReference(edge, plan)
				if !slices.Equal(base.Layers, snapshot) {
					t.Fatalf("%s cut %d: ApplyPlan modified its input", name, cut)
				}
				if !slices.Equal(got.Layers, want.Layers) || got.Hash() != want.Hash() ||
					got.Name != want.Name || got.Input != want.Input || got.Classes != want.Classes {
					t.Fatalf("%s cut %d plan %v: model differs from the per-action reference\n got %v\nwant %v",
						name, cut, plan, got.Layers, want.Layers)
				}
				if !slices.Equal(applied, wantApplied) {
					t.Fatalf("%s cut %d plan %v: applied %v, reference applied %v", name, cut, plan, applied, wantApplied)
				}
				refused += trialRefused
				plans++
				bound += len(applied)
			}
		}
	}
	if plans < 10_000 || bound == 0 {
		t.Fatalf("%d plans, %d bound actions; want ≥ 10k plans that bind", plans, bound)
	}
	if refused == 0 {
		t.Fatal("no plan exercised an action the trial refused; the differential shows nothing")
	}
	t.Logf("%d plans, %d bound actions, %d actions the trial refused", plans, bound, refused)
}

// ApplyPlan edits its own copy: neither the input model nor the array
// behind a prefix view of it changes, and the result shares no storage with
// either.
func TestApplyPlanLeavesInputUntouched(t *testing.T) {
	base := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	snapshot := slices.Clone(base.Layers)
	cut := len(base.Layers) / 2
	views := []*nn.Model{
		base,
		// An uncapped prefix view: growth must not spill into base.Layers[cut:].
		{Name: base.Name, Input: base.Input, Layers: base.Layers[:cut]},
	}
	for _, m := range views {
		var plan []Action
		for i := range m.Layers {
			for _, tech := range Catalog() {
				if tech.ID != None && tech.Applicable(m, i) {
					plan = append(plan, Action{Layer: i, Technique: tech})
					break
				}
			}
		}
		out, applied, err := ApplyPlan(m, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(applied) == 0 {
			t.Fatal("plan bound nothing")
		}
		if !slices.Equal(base.Layers, snapshot) {
			t.Fatalf("ApplyPlan on %d layers modified the input", len(m.Layers))
		}
		for i := range out.Layers {
			out.Layers[i].Out = -1
		}
		if !slices.Equal(base.Layers, snapshot) {
			t.Fatalf("ApplyPlan on %d layers returned layers that alias the input", len(m.Layers))
		}
	}
}
