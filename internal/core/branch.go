package core

import (
	"fmt"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
)

// BranchResult is the output of the Alg. 1 optimal-branch search: the best
// partitioned-and-compressed candidate found for one constant bandwidth.
type BranchResult struct {
	Candidate Candidate
	Metrics   Metrics
	// BaseCut is the partition point in base-model coordinates (-1 = all
	// cloud never occurs here; len-1 = no partition).
	BaseCut int
	// Actions are the applied compression actions in edge-submodel
	// coordinates.
	Actions []compress.Action
	// History records the best-so-far reward after each episode (the Fig. 7
	// search curves).
	History []float64
	// Episodes is the number of episodes actually run.
	Episodes int
}

// BranchConfig controls the Alg. 1 search loop.
type BranchConfig struct {
	// Episodes is the search budget ("until both controllers converge" is
	// approximated by a fixed budget; the history shows the plateau).
	Episodes int
	// Strategy chooses actions; nil builds the default RL strategy.
	Strategy Strategy
	// RL configures the default strategy when Strategy is nil.
	RL RLConfig
}

// DefaultBranchConfig returns the budget used by the evaluation harness.
func DefaultBranchConfig() BranchConfig {
	return BranchConfig{Episodes: 200, RL: DefaultRLConfig()}
}

// OptimalBranch runs Alg. 1: a joint partition + compression search for a
// base DNN under one constant bandwidth. Each episode samples a partition
// from the partition controller, compresses the edge half layer by layer with
// the compression controller, concatenates the halves, computes the Eq. 7
// reward, and updates both controllers with the policy gradient.
func OptimalBranch(p *Problem, bandwidthMbps float64, cfg BranchConfig) (*BranchResult, error) {
	if cfg.Episodes <= 0 {
		return nil, fmt.Errorf("core: episode budget must be positive, got %d", cfg.Episodes)
	}
	strat := cfg.Strategy
	if strat == nil {
		var err error
		strat, err = NewRLStrategy(len(p.Techniques), cfg.RL)
		if err != nil {
			return nil, err
		}
	}
	pMask, err := p.partitionMask()
	if err != nil {
		return nil, err
	}
	fullSeq := encodeLayers(p.Base.Layers, bandwidthMbps)
	n := len(p.Base.Layers)

	res := &BranchResult{Metrics: Metrics{Reward: -1}, History: make([]float64, 0, cfg.Episodes)}

	// Partition-only pre-scan: the branch search space strictly contains the
	// surgery baseline's (every legal cut, uncompressed), so evaluate those
	// candidates first. This seeds the best-so-far and replays the winner
	// into the strategy, mirroring the paper's boosting trick at the branch
	// level.
	seedAction := -1
	for ap := 0; ap <= n+1; ap++ {
		if !pMask[ap] {
			continue
		}
		cut := ap
		switch ap {
		case n:
			cut = n - 1
		case n + 1:
			cut = -1
		}
		cand, err := p.ComposeBranch(cut, nil)
		if err != nil {
			continue
		}
		m, err := p.Evaluate(cand, bandwidthMbps)
		if err != nil {
			return nil, err
		}
		if m.Reward > res.Metrics.Reward {
			res.Metrics = m
			res.Candidate = cand
			res.BaseCut = cut
			res.Actions = nil
			seedAction = ap
		}
	}
	if seedAction >= 0 {
		seed := partitionDecision("p/branch", fullSeq, pMask, seedAction, nil)
		if err := strat.Observe([]Decision{seed}, res.Metrics.Reward); err != nil {
			return nil, err
		}
		strat.Commit()
	}

	for ep := 0; ep < cfg.Episodes; ep++ {
		pd, err := strat.SelectPartition("p/branch", fullSeq, pMask)
		if err != nil {
			return nil, err
		}
		cut := pd.Action
		switch pd.Action {
		case n: // no partition: everything stays on the edge
			cut = n - 1
		case n + 1: // offload everything: ship the raw input
			cut = -1
		}
		decisions := []Decision{pd}
		var actions []compress.Action
		if cut >= 0 {
			edge := &nn.Model{Name: p.Base.Name, Input: p.Base.Input,
				Layers: p.Base.Slice(nn.Block{Start: 0, End: cut + 1})}
			if cut == n-1 {
				edge.Classes = p.Base.Classes
			}
			cd, err := strat.SelectCompression("c/branch", encodeLayers(edge.Layers, bandwidthMbps), p.compressionMasks(edge))
			if err != nil {
				return nil, err
			}
			actions = p.actionsFor(cd.Actions)
			decisions = append(decisions, cd)
		}
		cand, err := p.ComposeBranch(cut, actions)
		if err != nil {
			// Structurally infeasible sample: skip, count the episode.
			res.History = append(res.History, bestSoFar(res))
			continue
		}
		m, err := p.Evaluate(cand, bandwidthMbps)
		if err != nil {
			return nil, err
		}
		if err := strat.Observe(decisions, m.Reward); err != nil {
			return nil, err
		}
		strat.Commit()
		if m.Reward > res.Metrics.Reward {
			res.Metrics = m
			res.Candidate = cand
			res.BaseCut = cut
			res.Actions = actions
		}
		res.History = append(res.History, bestSoFar(res))
		res.Episodes = ep + 1
	}
	if res.Candidate.Model == nil {
		return nil, fmt.Errorf("core: branch search found no feasible candidate")
	}
	return res, nil
}

func bestSoFar(r *BranchResult) float64 {
	if r.Metrics.Reward < 0 {
		return 0
	}
	return r.Metrics.Reward
}
