package emulator

import (
	"encoding/json"
	"fmt"
	"io"

	"cadmc/internal/core"
	"cadmc/internal/nn"
)

// savedScenario is the on-disk form of a trained scenario. The problem and
// trace are not stored: they rebuild deterministically from the spec and
// options, which keeps the artifact small and forward-verifiable.
type savedScenario struct {
	Spec     ScenarioSpec    `json:"spec"`
	Options  TrainOptions    `json:"options"`
	Classes  []float64       `json:"classes"`
	Tree     *core.ModelTree `json:"tree"`
	Branches []savedBranch   `json:"branches"`
	Rewards  [4]float64      `json:"rewards"` // surgery, branch, tree, bestTree
}

type savedBranch struct {
	Model   *nn.Model    `json:"model"`
	Cut     int          `json:"cut"`
	BaseCut int          `json:"baseCut"`
	Metrics core.Metrics `json:"metrics"`
}

// Save writes the trained scenario as JSON.
func (ts *TrainedScenario) Save(w io.Writer) error {
	sv := savedScenario{
		Spec:    ts.Spec,
		Options: ts.Options,
		Classes: ts.Classes,
		Tree:    ts.Tree,
		Rewards: [4]float64{ts.SurgeryReward, ts.BranchReward, ts.TreeReward, ts.BestTreeReward},
	}
	for _, br := range ts.Branches {
		sv.Branches = append(sv.Branches, savedBranch{
			Model:   br.Candidate.Model,
			Cut:     br.Candidate.Cut,
			BaseCut: br.BaseCut,
			Metrics: br.Metrics,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&sv); err != nil {
		return fmt.Errorf("emulator: save scenario: %w", err)
	}
	return nil
}

// Load restores a trained scenario saved with Save, rebuilding the problem
// and trace deterministically from the stored spec and options.
func Load(r io.Reader) (*TrainedScenario, error) {
	var sv savedScenario
	if err := json.NewDecoder(r).Decode(&sv); err != nil {
		return nil, fmt.Errorf("emulator: load scenario: %w", err)
	}
	if sv.Tree == nil || len(sv.Branches) == 0 {
		return nil, fmt.Errorf("emulator: saved scenario incomplete")
	}
	if err := sv.Tree.Validate(); err != nil {
		return nil, fmt.Errorf("emulator: saved tree invalid: %w", err)
	}
	p, trace, err := NewProblem(sv.Spec, sv.Options.Blocks, sv.Options.TraceMS)
	if err != nil {
		return nil, err
	}
	ts := &TrainedScenario{
		Spec:           sv.Spec,
		Problem:        p,
		Trace:          trace,
		Classes:        sv.Classes,
		Tree:           sv.Tree,
		SurgeryReward:  sv.Rewards[0],
		BranchReward:   sv.Rewards[1],
		TreeReward:     sv.Rewards[2],
		BestTreeReward: sv.Rewards[3],
	}
	for _, sb := range sv.Branches {
		if err := sb.Model.Validate(); err != nil {
			return nil, fmt.Errorf("emulator: saved branch model invalid: %w", err)
		}
		ts.Branches = append(ts.Branches, &core.BranchResult{
			Candidate: core.Candidate{Model: sb.Model, Cut: sb.Cut},
			BaseCut:   sb.BaseCut,
			Metrics:   sb.Metrics,
		})
	}
	return ts, nil
}
