package core

import (
	"fmt"
	"math/rand"
	"strings"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
)

// TreeConfig controls the Alg. 3 model-tree search.
type TreeConfig struct {
	// Episodes is the search budget.
	Episodes int
	// ClassMbps are the K bandwidth-class levels (nondecreasing). The paper
	// uses K = 2: the scenario trace's lower and upper quartiles.
	ClassMbps []float64
	// RootClass selects the bandwidth class the shared root block is
	// generated under; -1 picks the upper median class.
	RootClass int
	// Strategy chooses actions; nil builds the default RL strategy.
	Strategy Strategy
	// RL configures the default strategy when Strategy is nil.
	RL RLConfig
	// Alpha0 is the initial fair-chance forcing probability: a block at
	// tree layer n is forced to "no partition" with probability
	// α·(N−n)/N, with α decaying to zero (Sec. VII-A, "exploration with
	// fair chances"). Zero disables the countermeasure (ablation).
	Alpha0 float64
	// AlphaDecayEpisodes is the episode count over which α decays to zero;
	// 0 defaults to Episodes/3.
	AlphaDecayEpisodes int
	// Boost warms the controllers up with per-class optimal-branch
	// solutions before tree search (Sec. VII-A, "optimal branch boosting").
	Boost bool
	// BoostPasses is how many times each branch solution is replayed into
	// the controllers (default 3).
	BoostPasses int
	// BranchBudget is the episode budget of each boosting branch search
	// (default 150).
	BranchBudget int
	// NoBackwardAveraging disables the Alg. 3 backward-estimation stage
	// (parents keep reward zero instead of the average of their children) —
	// an ablation knob for the latent reward-assignment mechanism.
	NoBackwardAveraging bool
	// Seed drives the fair-chance coin flips.
	Seed int64
}

// DefaultTreeConfig returns the evaluation harness configuration for the
// given bandwidth classes.
func DefaultTreeConfig(classMbps []float64) TreeConfig {
	return TreeConfig{
		Episodes:     150,
		ClassMbps:    classMbps,
		RootClass:    -1,
		RL:           DefaultRLConfig(),
		Alpha0:       0.8,
		Boost:        true,
		BoostPasses:  3,
		BranchBudget: 120,
		Seed:         1,
	}
}

// TreeResult is the output of the model-tree search.
type TreeResult struct {
	// Tree is the best tree found (highest best-branch reward).
	Tree *ModelTree
	// BestBranchReward is that tree's best branch reward — the "offline
	// training reward" reported in Table III's Tree column.
	BestBranchReward float64
	// History is the best-so-far reward per episode (Fig. 7 curves).
	History []float64
	// BranchResults holds the per-class boosting solutions when Boost is
	// set (their best rewards are Table III's Branch column inputs).
	BranchResults []*BranchResult
	// Episodes actually run.
	Episodes int
}

// OptimalTree runs Alg. 3: episodes of forward generation (BFS over an
// N-depth K-fork tree, sampling partition and compression per node) and
// backward estimation (terminal rewards averaged into parents), updating the
// controllers with every node's action–reward pair.
func OptimalTree(p *Problem, cfg TreeConfig) (*TreeResult, error) {
	if cfg.Episodes <= 0 {
		return nil, fmt.Errorf("core: episode budget must be positive, got %d", cfg.Episodes)
	}
	if len(cfg.ClassMbps) == 0 {
		return nil, fmt.Errorf("core: tree search needs bandwidth classes")
	}
	for i := 1; i < len(cfg.ClassMbps); i++ {
		if cfg.ClassMbps[i] < cfg.ClassMbps[i-1] {
			return nil, fmt.Errorf("core: bandwidth classes must be nondecreasing: %v", cfg.ClassMbps)
		}
	}
	for _, l := range p.Base.Layers {
		if l.Type == nn.Add {
			return nil, fmt.Errorf("core: tree search supports chain base models only (%q has residual adds)", p.Base.Name)
		}
	}
	k := len(cfg.ClassMbps)
	rootClass := cfg.RootClass
	if rootClass < 0 || rootClass >= k {
		rootClass = k / 2
	}
	strat := cfg.Strategy
	if strat == nil {
		var err error
		strat, err = NewRLStrategy(len(p.Techniques), cfg.RL)
		if err != nil {
			return nil, err
		}
	}
	decay := cfg.AlphaDecayEpisodes
	if decay <= 0 {
		decay = cfg.Episodes / 3
		if decay == 0 {
			decay = 1
		}
	}
	gen := &treeGen{p: p, cfg: cfg, k: k, rootClass: rootClass, strat: strat,
		rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))}

	res := &TreeResult{BestBranchReward: -1, History: make([]float64, 0, cfg.Episodes)}
	chosenBranchReward := -1.0

	// runEpisode generates one tree (optionally with scripted actions on
	// specific sites), runs backward estimation, credits every node's
	// decisions, and folds the tree into the running best.
	runEpisode := func(alpha float64, script map[string]scriptEntry) error {
		episodeStrat := strat
		if script != nil {
			episodeStrat = &scriptedStrategy{inner: strat, script: script}
		}
		gen.strat = episodeStrat
		tree, err := gen.generate(alpha)
		if err != nil {
			return err
		}
		if err := backwardEstimate(p, tree, rootClass, !cfg.NoBackwardAveraging); err != nil {
			return err
		}
		var observeErr error
		visit(tree.Root, func(n *TreeNode) {
			if observeErr != nil || len(n.decisions) == 0 {
				return
			}
			observeErr = strat.Observe(n.decisions, n.Reward)
			n.decisions = nil // credited: the kept tree holds no passes
		})
		if observeErr != nil {
			return observeErr
		}
		strat.Commit()
		_, bestR, err := tree.BestBranch()
		if err != nil {
			return err
		}
		if bestR > res.BestBranchReward {
			res.BestBranchReward = bestR
		}
		// The tree the online engine ships is the one with the best
		// *expected* reward over bandwidth-class sequences — exactly the
		// backward-estimated root reward — not the one containing a single
		// lucky branch. Ties (e.g. with backward averaging ablated) fall
		// back to the best single-branch reward.
		if res.Tree == nil || tree.Root.Reward > res.Tree.Root.Reward ||
			(almostEqual(tree.Root.Reward, res.Tree.Root.Reward) && bestR > chosenBranchReward) {
			res.Tree = tree
			chosenBranchReward = bestR
		}
		return nil
	}

	if cfg.Boost {
		if err := boost(p, cfg, strat, res, runEpisode); err != nil {
			return nil, err
		}
	}

	for ep := 0; ep < cfg.Episodes; ep++ {
		alpha := 0.0
		if cfg.Alpha0 > 0 && ep < decay {
			alpha = cfg.Alpha0 * (1 - float64(ep)/float64(decay))
		}
		if err := runEpisode(alpha, nil); err != nil {
			return nil, err
		}
		res.History = append(res.History, res.BestBranchReward)
		res.Episodes = ep + 1
	}
	if res.Tree == nil {
		return nil, fmt.Errorf("core: tree search found no feasible tree")
	}
	return res, nil
}

// scriptEntry forces one tree site's actions during a boosting episode.
type scriptEntry struct {
	partition   int
	compression []int
}

// scriptedStrategy overrides specific sites with scripted actions while
// delegating everything else (including learning) to the wrapped strategy.
type scriptedStrategy struct {
	inner  Strategy
	script map[string]scriptEntry
}

var _ Strategy = (*scriptedStrategy)(nil)

func (s *scriptedStrategy) SelectPartition(site string, seq [][]float64, mask []bool) (Decision, error) {
	if e, ok := s.script[site]; ok {
		return partitionDecision(site, seq, mask, e.partition, nil), nil
	}
	return s.inner.SelectPartition(site, seq, mask)
}

func (s *scriptedStrategy) SelectCompression(site string, seq [][]float64, masks [][]bool) (Decision, error) {
	if e, ok := s.script[site]; ok && len(e.compression) == len(seq) {
		return Decision{Site: site, Seq: seq, Masks: masks, Actions: append([]int(nil), e.compression...)}, nil
	}
	return s.inner.SelectCompression(site, seq, masks)
}

func (s *scriptedStrategy) Observe(d []Decision, r float64) error { return s.inner.Observe(d, r) }
func (s *scriptedStrategy) Commit()                               { s.inner.Commit() }

// boost runs per-class optimal-branch searches (Alg. 1) and then replays
// each solution as scripted tree episodes along its constant-class path, so
// the controllers are credited at the actual tree decision sites and the
// best-tree tracking starts from trees containing the static local optima —
// the paper's "optimal branch boosting".
func boost(p *Problem, cfg TreeConfig, strat Strategy, res *TreeResult,
	runEpisode func(alpha float64, script map[string]scriptEntry) error) error {
	budget := cfg.BranchBudget
	if budget <= 0 {
		budget = 120
	}
	passes := cfg.BoostPasses
	if passes <= 0 {
		passes = 3
	}
	k := len(cfg.ClassMbps)
	rootClass := cfg.RootClass
	if rootClass < 0 || rootClass >= k {
		rootClass = k / 2
	}
	scripts := make([]map[string]scriptEntry, 0, k)
	for ki, w := range cfg.ClassMbps {
		br, err := OptimalBranch(p, w, BranchConfig{Episodes: budget, Strategy: strat})
		if err != nil {
			return err
		}
		res.BranchResults = append(res.BranchResults, br)
		script, err := branchScript(p, br, ki)
		if err != nil {
			return err
		}
		scripts = append(scripts, script)
		for pass := 0; pass < passes; pass++ {
			if err := runEpisode(0, script); err != nil {
				return err
			}
		}
	}
	// Graft: merge every class's path script into one tree whose fork-k
	// nodes follow branch k ("replace corresponding branches of the model
	// tree with these pre-trained branches"), sharing the root-class root.
	merged := make(map[string]scriptEntry)
	for ki, script := range scripts {
		for site, entry := range script {
			isRoot := strings.Contains(site, "fork-1")
			if isRoot && ki != rootClass {
				continue
			}
			merged[site] = entry
		}
	}
	for pass := 0; pass < passes; pass++ {
		if err := runEpisode(0, merged); err != nil {
			return err
		}
	}
	return nil
}

// branchScript converts an Alg. 1 branch solution into forced per-node tree
// actions along the constant-class-k path (sites blk0/fork-1, blk1/fork k,
// blk2/fork k, ...).
func branchScript(p *Problem, br *BranchResult, k int) (map[string]scriptEntry, error) {
	techIdx := func(id compress.ID) int {
		for j, t := range p.Techniques {
			if t.ID == id {
				return j
			}
		}
		return 0
	}
	script := make(map[string]scriptEntry, len(p.Blocks)*2)
	for j, blk := range p.Blocks {
		s, e := blk.Start, blk.End
		l := e - s
		fork := k
		if j == 0 {
			fork = -1
		}
		site := fmt.Sprintf("blk%d/fork%d", j, fork)
		var entry scriptEntry
		edgeEnd := 0
		done := false
		switch {
		case br.BaseCut == -1:
			entry.partition = l + 1 // offload at block entry
			done = true
		case br.BaseCut >= e-1 && j == len(p.Blocks)-1,
			br.BaseCut >= e:
			entry.partition = l // no partition in this block
			edgeEnd = l
		case br.BaseCut >= s:
			entry.partition = br.BaseCut - s // cut inside (or at end of) block
			edgeEnd = br.BaseCut - s + 1
			done = true
		default:
			return nil, fmt.Errorf("core: branch cut %d precedes block %d start %d", br.BaseCut, j, s)
		}
		if edgeEnd > 0 {
			entry.compression = make([]int, edgeEnd)
			for _, a := range br.Actions {
				if a.Layer >= s && a.Layer < s+edgeEnd {
					entry.compression[a.Layer-s] = techIdx(a.Technique.ID)
				}
			}
		}
		script["p/"+site] = entry
		script["c/"+site] = entry
		if done {
			break
		}
	}
	return script, nil
}

// treeGen carries the per-search state of forward generation.
type treeGen struct {
	p         *Problem
	cfg       TreeConfig
	k         int
	rootClass int
	strat     Strategy
	rng       *rand.Rand
}

// generate performs one forward-generation pass (Alg. 3 lines 5–26),
// building a complete tree with sampled partition and compression actions.
func (g *treeGen) generate(alpha float64) (*ModelTree, error) {
	tree := &ModelTree{
		Base:      g.p.Base,
		Blocks:    g.p.Blocks,
		ClassMbps: g.cfg.ClassMbps,
		RootClass: g.rootClass,
	}
	root, err := g.node(0, -1, g.p.Base.Input, g.cfg.ClassMbps[g.rootClass], alpha)
	if err != nil {
		return nil, err
	}
	tree.Root = root
	return tree, nil
}

// node builds the tree node for block blockIdx reached via fork, given the
// activation shape inShape the already-composed edge prefix ends with, then
// recurses into its K children when no partition occurs.
func (g *treeGen) node(blockIdx, fork int, inShape nn.Shape, w float64, alpha float64) (*TreeNode, error) {
	nBlocks := len(g.p.Blocks)
	isLast := blockIdx == nBlocks-1
	blk := g.p.Base.Slice(g.p.Blocks[blockIdx])

	sub := &nn.Model{Name: g.p.Base.Name, Input: inShape, Layers: blk}
	if isLast {
		sub.Classes = g.p.Base.Classes
	}
	if err := sub.Normalize(); err != nil {
		return nil, fmt.Errorf("core: block %d sub-model: %w", blockIdx, err)
	}

	site := fmt.Sprintf("blk%d/fork%d", blockIdx, fork)
	seq := encodeLayers(sub.Layers, w)
	mask, err := g.blockPartitionMask(sub, isLast)
	if err != nil {
		return nil, err
	}
	l := len(sub.Layers)
	var pd Decision
	// Fair-chance exploration: force "no partition" so deep blocks are
	// visited despite the (1/(L+1))^depth natural visit probability.
	if alpha > 0 && g.rng.Float64() < alpha*float64(nBlocks-blockIdx-1)/float64(nBlocks) {
		pd = partitionDecision("p/"+site, seq, mask, l, nil)
	} else if pd, err = g.strat.SelectPartition("p/"+site, seq, mask); err != nil {
		return nil, err
	}
	ap := pd.Action
	partitioned := ap != l
	edgeEnd := l
	switch {
	case ap < l:
		edgeEnd = ap + 1 // cut after local layer ap
	case ap == l+1:
		edgeEnd = 0 // offload at block entry: the whole block goes to the cloud
	}
	node := &TreeNode{BlockIdx: blockIdx, Fork: fork, decisions: []Decision{pd}}
	if edgeEnd > 0 {
		// A prefix of the normalised sub: its layers are already consistent,
		// and its sequence is a prefix of seq.
		edgeSub := &nn.Model{Name: g.p.Base.Name, Input: inShape, Layers: sub.Layers[:edgeEnd:edgeEnd]}
		if isLast && !partitioned {
			edgeSub.Classes = g.p.Base.Classes
		}
		cd, err := g.strat.SelectCompression("c/"+site, seq[:edgeEnd:edgeEnd], g.p.compressionMasks(edgeSub))
		if err != nil {
			return nil, err
		}
		compressed, _, err := compress.ApplyPlan(edgeSub, g.p.actionsFor(cd.Actions))
		if err != nil {
			return nil, err
		}
		node.EdgeLayers = compressed.Layers
		node.decisions = append(node.decisions, cd)
		if !partitioned && !isLast {
			// The children's prefix ends where this block's edge layers do.
			rows, err := compressed.Costs()
			if err != nil {
				return nil, fmt.Errorf("core: prefix shape: %w", err)
			}
			inShape = rows[len(rows)-1].Out
		}
	}
	if partitioned {
		tail := make([]nn.Layer, 0, l-edgeEnd+len(g.p.Base.Layers)-g.p.Blocks[blockIdx].End)
		tail = append(tail, sub.Layers[edgeEnd:]...)
		tail = append(tail, g.p.Base.Layers[g.p.Blocks[blockIdx].End:]...)
		node.CloudTail = tail
		return node, nil
	}
	if isLast {
		return node, nil
	}
	node.Children = make([]*TreeNode, g.k)
	for k := 0; k < g.k; k++ {
		child, err := g.node(blockIdx+1, k, inShape, g.cfg.ClassMbps[k], alpha)
		if err != nil {
			return nil, err
		}
		node.Children[k] = child
	}
	return node, nil
}

// blockPartitionMask marks the legal local cut actions within a block plus
// the trailing "no partition" (index L) and "offload at block entry"
// (index L+1) actions. For the last block, cutting after the final layer is
// meaningless (identical to no partition) and stays masked.
func (g *treeGen) blockPartitionMask(sub *nn.Model, isLast bool) ([]bool, error) {
	l := len(sub.Layers)
	mask := make([]bool, l+2)
	cuts, err := sub.CutPoints()
	if err != nil {
		return nil, err
	}
	for _, c := range cuts {
		if isLast && c == l-1 {
			continue
		}
		mask[c] = true
	}
	mask[l] = true
	mask[l+1] = true
	return mask, nil
}

// backwardEstimate implements Alg. 3's backward stage: terminal nodes get
// their composed branch's Eq. 7 reward evaluated at their fork's bandwidth
// class; when average is set, each parent receives the average of its
// children (Rz += Ri/K).
func backwardEstimate(p *Problem, tree *ModelTree, rootClass int, average bool) error {
	for _, b := range tree.Branches() {
		term := b.Nodes[len(b.Nodes)-1]
		cand, err := tree.ComposeBranch(b)
		if err != nil {
			// Structurally broken branch: harshest reward, the search
			// learns to avoid it.
			term.Reward = 0
			continue
		}
		if len(b.Nodes) == 1 && term.Partitioned() {
			// A partition at the root happens before any bandwidth
			// measurement (Alg. 2 concatenates the root first), so its
			// transfer faces the whole context distribution: average the
			// reward over every class.
			sum := 0.0
			for _, w := range tree.ClassMbps {
				m, err := p.Evaluate(cand, w)
				if err != nil {
					return err
				}
				sum += m.Reward
			}
			term.Reward = sum / float64(len(tree.ClassMbps))
			continue
		}
		w := tree.ClassMbps[b.TerminalFork(rootClass)]
		m, err := p.Evaluate(cand, w)
		if err != nil {
			return err
		}
		term.Reward = m.Reward
	}
	if !average {
		return nil
	}
	var fill func(n *TreeNode)
	fill = func(n *TreeNode) {
		if n.Terminal() {
			return
		}
		sum := 0.0
		count := 0
		for _, c := range n.Children {
			if c == nil {
				continue
			}
			fill(c)
			sum += c.Reward
			count++
		}
		if count > 0 {
			n.Reward = sum / float64(count)
		}
	}
	fill(tree.Root)
	return nil
}

func visit(n *TreeNode, f func(*TreeNode)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		visit(c, f)
	}
}
