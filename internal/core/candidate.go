package core

import (
	"fmt"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
)

// ComposeBranch builds a candidate from a global partition decision and
// per-layer compression actions on the edge prefix (the Alg. 1 state
// transition): layers [0, cut] are compressed and stay on the edge, layers
// (cut, end) are inherited unmodified and run on the cloud.
//
// cut uses base-model coordinates; -1 ships the raw input (no edge part, no
// compression), len-1 keeps everything on the edge. The returned candidate's
// Cut is in the composed model's coordinates (compression changes layer
// counts).
func (p *Problem) ComposeBranch(cut int, actions []compress.Action) (Candidate, error) {
	n := len(p.Base.Layers)
	if cut < -1 || cut >= n {
		return Candidate{}, fmt.Errorf("core: cut %d out of range [-1,%d)", cut, n)
	}
	if cut == -1 {
		return Candidate{Model: p.Base.Clone(), Cut: -1}, nil
	}
	// ApplyPlan copies the prefix it compresses, so a view will do.
	edge := &nn.Model{Name: p.Base.Name, Input: p.Base.Input, Layers: p.Base.Layers[: cut+1 : cut+1]}
	if cut == n-1 {
		edge.Classes = p.Base.Classes
	}
	compressedEdge, _, err := compress.ApplyPlan(edge, actions)
	if err != nil {
		return Candidate{}, err
	}
	delta := len(compressedEdge.Layers) - (cut + 1)
	full := &nn.Model{
		Name:    p.Base.Name,
		Input:   p.Base.Input,
		Classes: p.Base.Classes,
	}
	full.Layers = make([]nn.Layer, 0, len(compressedEdge.Layers)+n-cut-1)
	full.Layers = append(full.Layers, compressedEdge.Layers...)
	for _, l := range p.Base.Layers[cut+1:] {
		// Skip sources at or after the cut shift with the compressed
		// prefix (the boundary layer `cut` maps to the last edge layer).
		// Sources strictly before the cut cannot occur: CutPoints excludes
		// cuts strictly inside a residual span.
		if l.Type == nn.Add && l.SkipFrom >= cut {
			l.SkipFrom += delta
		}
		full.Layers = append(full.Layers, l)
	}
	if err := full.Normalize(); err != nil {
		return Candidate{}, fmt.Errorf("core: composed branch inconsistent: %w", err)
	}
	return Candidate{Model: full, Cut: len(compressedEdge.Layers) - 1}, nil
}

// partitionMask returns the L+2 action mask for the partition controller on
// the base model: action i < L cuts after layer i (legal cut points only),
// action L means no partition (everything on the edge), action L+1 offloads
// everything (the raw input crosses the network).
func (p *Problem) partitionMask() ([]bool, error) {
	n := len(p.Base.Layers)
	mask := make([]bool, n+2)
	cuts, err := p.Base.CutPoints()
	if err != nil {
		return nil, err
	}
	for _, c := range cuts {
		if c < n-1 {
			mask[c] = true
		}
	}
	mask[n] = true
	mask[n+1] = true
	return mask, nil
}

// compressionMasks returns, for each layer of the (sub)model, the technique
// applicability mask over p.Techniques.
func (p *Problem) compressionMasks(m *nn.Model) [][]bool {
	masks := make([][]bool, len(m.Layers))
	for i := range m.Layers {
		row := make([]bool, len(p.Techniques))
		for j, t := range p.Techniques {
			row[j] = t.Applicable(m, i)
		}
		masks[i] = row
	}
	return masks
}

// actionsFor converts per-layer technique indices into a compress plan.
func (p *Problem) actionsFor(indices []int) []compress.Action {
	actions := make([]compress.Action, 0, len(indices))
	for layer, idx := range indices {
		if idx < 0 || idx >= len(p.Techniques) {
			continue
		}
		t := p.Techniques[idx]
		if t.ID == compress.None {
			continue
		}
		actions = append(actions, compress.Action{Layer: layer, Technique: t})
	}
	return actions
}
