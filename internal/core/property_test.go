package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
)

// Property: any composition of (legal cut, random applicable compression
// actions) yields a model that validates, keeps the classifier contract, and
// has positive MACCs — the state space of the MDP is closed under the action
// space.
func TestComposeBranchClosedUnderActionsProperty(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	mask, err := p.partitionMask()
	if err != nil {
		t.Fatal(err)
	}
	legal := make([]int, 0, len(mask))
	for i, ok := range mask {
		if ok {
			legal = append(legal, i)
		}
	}
	n := len(p.Base.Layers)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ap := legal[rng.Intn(len(legal))]
		cut := ap
		switch ap {
		case n:
			cut = n - 1
		case n + 1:
			cut = -1
		}
		var actions []compress.Action
		if cut >= 0 {
			edge := &nn.Model{Name: p.Base.Name, Input: p.Base.Input,
				Layers: p.Base.Slice(nn.Block{Start: 0, End: cut + 1})}
			if cut == n-1 {
				edge.Classes = p.Base.Classes
			}
			for i := range edge.Layers {
				tech := p.Techniques[rng.Intn(len(p.Techniques))]
				if tech.ID != compress.None && tech.Applicable(edge, i) {
					actions = append(actions, compress.Action{Layer: i, Technique: tech})
				}
			}
		}
		cand, err := p.ComposeBranch(cut, actions)
		if err != nil {
			return false
		}
		if err := cand.Model.Validate(); err != nil {
			return false
		}
		maccs, err := cand.Model.MACCs()
		if err != nil || maccs <= 0 {
			return false
		}
		return cand.Cut >= -1 && cand.Cut < len(cand.Model.Layers)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reward produced by Evaluate lies in [0, RewardConfig.Max()].
func TestEvaluateRewardBoundedProperty(t *testing.T) {
	p := newTestProblem(t, nn.AlexNet(nn.CIFARInput, nn.CIFARClasses))
	n := len(p.Base.Layers)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cut := rng.Intn(n+1) - 1
		cand, err := p.ComposeBranch(cut, nil)
		if err != nil {
			return true // illegal cut sites are allowed to fail
		}
		w := rng.Float64() * 50
		m, err := p.Evaluate(cand, w)
		if err != nil {
			return false
		}
		return m.Reward >= 0 && m.Reward <= p.Reward.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: every branch of a randomly generated tree composes into a valid
// model (the tree structure is closed under random generation).
func TestRandomTreeBranchesValidProperty(t *testing.T) {
	p := newTestProblem(t, nn.AlexNet(nn.CIFARInput, nn.CIFARClasses))
	f := func(seed int64) bool {
		cfg := DefaultTreeConfig([]float64{1.5, 6})
		cfg.Episodes = 1
		cfg.Boost = false
		cfg.Alpha0 = 0
		cfg.Strategy = NewRandomStrategy(seed)
		cfg.Seed = seed
		res, err := OptimalTree(p, cfg)
		if err != nil {
			return false
		}
		for _, b := range res.Tree.Branches() {
			cand, err := res.Tree.ComposeBranch(b)
			if err != nil {
				return false
			}
			if err := cand.Model.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// offloadStrategy offloads at every block entry and compresses nothing, so
// every "no partition" a generated tree holds was forced by the fair-chance
// schedule.
type offloadStrategy struct{}

func (offloadStrategy) SelectPartition(site string, seq [][]float64, mask []bool) (Decision, error) {
	return partitionDecision(site, seq, mask, len(seq)+1, nil), nil
}

func (offloadStrategy) SelectCompression(site string, seq [][]float64, masks [][]bool) (Decision, error) {
	return Decision{Site: site, Seq: seq, Masks: masks, Actions: make([]int, len(seq))}, nil
}

func (offloadStrategy) Observe([]Decision, float64) error { return nil }
func (offloadStrategy) Commit()                           {}

// Property: fair-chance exploration forces "no partition" at block b with
// probability α·(N−b−1)/N, so the forcing falls with depth and never touches
// the last block, whose children do not exist.
func TestFairChanceScheduleFallsWithDepth(t *testing.T) {
	p := newTestProblem(t, nn.VGG11(nn.CIFARInput, nn.CIFARClasses))
	const alpha, trees = 0.9, 4000
	g := &treeGen{p: p, cfg: TreeConfig{ClassMbps: []float64{2, 20}}, k: 2,
		strat: offloadStrategy{}, rng: rand.New(rand.NewSource(11))}
	nBlocks := len(p.Blocks)
	visits := make([]int, nBlocks)
	forced := make([]int, nBlocks)
	for i := 0; i < trees; i++ {
		tree, err := g.generate(alpha)
		if err != nil {
			t.Fatal(err)
		}
		visit(tree.Root, func(n *TreeNode) {
			visits[n.BlockIdx]++
			if pd := n.decisions[0]; pd.Action == len(pd.Seq) {
				forced[n.BlockIdx]++
			}
		})
	}
	prev := 2.0
	for b := 0; b < nBlocks; b++ {
		if visits[b] == 0 {
			t.Fatalf("block %d never generated: %v visits", b, visits)
		}
		want := alpha * float64(nBlocks-b-1) / float64(nBlocks)
		got := float64(forced[b]) / float64(visits[b])
		tol := 4 * math.Sqrt(want*(1-want)/float64(visits[b])) // four binomial standard errors
		if math.Abs(got-want) > tol {
			t.Fatalf("block %d forced %d of %d (%.4f), want α·(N−b−1)/N = %.4f ± %.4f", b, forced[b], visits[b], got, want, tol)
		}
		if got >= prev && want > 0 {
			t.Fatalf("forcing rose with depth at block %d: %.4f after %.4f", b, got, prev)
		}
		prev = got
	}
	t.Logf("visits %v, forced %v", visits, forced)
}
