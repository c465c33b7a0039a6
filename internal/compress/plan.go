package compress

import (
	"fmt"
	"sort"

	"cadmc/internal/nn"
)

// Action binds a technique to a layer index of the model it is planned
// against.
type Action struct {
	Layer     int
	Technique Technique
}

// ApplyPlan applies a set of per-layer actions to m, returning the
// transformed model and the subset of actions that actually took effect.
//
// Actions are applied in descending layer order so earlier indices stay valid
// while later ones are rewritten; actions that are inapplicable at their site
// (wrong layer type, site consumed by a previous action such as F3 replacing
// the whole FC head) are skipped rather than failing the plan — this mirrors
// the paper's controller, whose per-layer softmax may emit techniques that do
// not bind. Applicable alone decides what binds: every binding action edits
// one copy of m in place, and the copy is normalised once at the end. m is
// not modified.
func ApplyPlan(m *nn.Model, actions []Action) (*nn.Model, []Action, error) {
	if m == nil {
		return nil, nil, fmt.Errorf("compress: nil model")
	}
	ordered := make([]Action, len(actions))
	copy(ordered, actions)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Layer > ordered[j].Layer })

	// One copy, with room for the most an action adds (C2: 1 → 4 layers).
	out := *m
	out.Layers = append(make([]nn.Layer, 0, len(m.Layers)+3*len(ordered)), m.Layers...)
	applied := make([]Action, 0, len(ordered))
	for _, a := range ordered {
		if a.Technique.ID == None || !a.Technique.Applicable(&out, a.Layer) {
			continue
		}
		if err := a.Technique.apply(&out, a.Layer); err != nil {
			return nil, nil, err
		}
		applied = append(applied, a)
	}
	if len(applied) > 0 {
		if err := out.Normalize(); err != nil {
			return nil, nil, fmt.Errorf("compress: plan leaves %q inconsistent: %w", m.Name, err)
		}
	}
	return &out, applied, nil
}
