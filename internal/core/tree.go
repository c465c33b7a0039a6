package core

import (
	"encoding/json"
	"fmt"

	"cadmc/internal/nn"
)

// TreeNode is one node of the context-aware model tree: a transformed
// variant of one base-model block, generated under one bandwidth class.
type TreeNode struct {
	// BlockIdx is the base-model block this node instantiates.
	BlockIdx int `json:"blockIdx"`
	// Fork is the bandwidth-class index whose branch leads to this node;
	// -1 for the root.
	Fork int `json:"fork"`
	// EdgeLayers are the block's (possibly compressed) layers that run on
	// the edge. Skip indices inside are local to this slice.
	EdgeLayers []nn.Layer `json:"edgeLayers"`
	// CloudTail is non-empty iff a partition occurs in this block: the
	// remaining base layers of the block plus every subsequent base block,
	// inherited uncompressed ("once a partition occurs on one block, its
	// following blocks are directly inherited from the base DNN").
	CloudTail []nn.Layer `json:"cloudTail,omitempty"`
	// Children holds the K bandwidth-class forks; nil for terminal nodes
	// (partitioned here, or last block).
	Children []*TreeNode `json:"children,omitempty"`
	// Reward is the backward-estimated node reward (terminal nodes carry
	// their branch's measured reward; parents the average of their
	// children's).
	Reward float64 `json:"reward"`

	// Training bookkeeping (not serialised).
	decisions []Decision
}

// Terminal reports whether composition stops at this node.
func (n *TreeNode) Terminal() bool { return len(n.Children) == 0 }

// Partitioned reports whether execution moves to the cloud inside this block.
func (n *TreeNode) Partitioned() bool { return len(n.CloudTail) > 0 }

// ModelTree is the offline-trained artifact from which the online engine
// composes a DNN block by block (Fig. 3).
type ModelTree struct {
	Base *nn.Model `json:"base"`
	// Blocks is the base model's block slicing.
	Blocks []nn.Block `json:"blocks"`
	// ClassMbps are the K bandwidth-class levels (e.g. lower/upper
	// quartiles of the scenario trace for K = 2).
	ClassMbps []float64 `json:"classMbps"`
	// RootClass is the bandwidth-class index the root block was generated
	// under.
	RootClass int       `json:"rootClass"`
	Root      *TreeNode `json:"root"`
}

// K returns the fork count.
func (t *ModelTree) K() int { return len(t.ClassMbps) }

// Branch is one root-to-terminal path of the tree.
type Branch struct {
	Nodes []*TreeNode
	// Forks are the class indices taken (Forks[0] is the root's, -1).
	Forks []int
}

// Terminalfork returns the bandwidth-class context of the branch's last
// decision (the root class when the branch terminates at the root).
func (b Branch) TerminalFork(rootClass int) int {
	f := b.Forks[len(b.Forks)-1]
	if f < 0 {
		return rootClass
	}
	return f
}

// Branches enumerates every root-to-terminal path.
func (t *ModelTree) Branches() []Branch {
	var out []Branch
	var walk func(n *TreeNode, nodes []*TreeNode, forks []int)
	walk = func(n *TreeNode, nodes []*TreeNode, forks []int) {
		nodes = append(nodes, n)
		forks = append(forks, n.Fork)
		if n.Terminal() {
			b := Branch{Nodes: make([]*TreeNode, len(nodes)), Forks: make([]int, len(forks))}
			copy(b.Nodes, nodes)
			copy(b.Forks, forks)
			out = append(out, b)
			return
		}
		for _, c := range n.Children {
			if c != nil {
				walk(c, nodes, forks)
			}
		}
	}
	if t.Root != nil {
		walk(t.Root, nil, nil)
	}
	return out
}

// ComposeBranch concatenates a branch's blocks into a runnable candidate:
// the edge layers of every node followed by the terminal node's cloud tail.
func (t *ModelTree) ComposeBranch(b Branch) (Candidate, error) {
	if len(b.Nodes) == 0 {
		return Candidate{}, fmt.Errorf("core: empty branch")
	}
	last := b.Nodes[len(b.Nodes)-1]
	size := len(last.CloudTail) // empty unless partitioned
	for _, n := range b.Nodes {
		size += len(n.EdgeLayers)
	}
	layers := make([]nn.Layer, 0, size)
	for _, n := range b.Nodes {
		layers = appendShifted(layers, n.EdgeLayers)
	}
	cut := len(layers) - 1
	if last.Partitioned() {
		layers = appendShifted(layers, last.CloudTail)
	}
	m := &nn.Model{
		Name:    t.Base.Name,
		Input:   t.Base.Input,
		Classes: t.Base.Classes,
		Layers:  layers,
	}
	if err := m.Normalize(); err != nil {
		return Candidate{}, fmt.Errorf("core: branch composition inconsistent: %w", err)
	}
	return Candidate{Model: m, Cut: cut}, nil
}

// appendShifted appends src to dst, shifting local Add skip indices by the
// insertion offset so they stay correct in the concatenated model.
func appendShifted(dst, src []nn.Layer) []nn.Layer {
	off := len(dst)
	for _, l := range src {
		if l.Type == nn.Add && l.SkipFrom >= 0 {
			l.SkipFrom += off
		}
		dst = append(dst, l)
	}
	return dst
}

// BestBranch returns the branch with the highest node reward at its terminal
// and that reward. It returns an error on an empty tree.
func (t *ModelTree) BestBranch() (Branch, float64, error) {
	branches := t.Branches()
	if len(branches) == 0 {
		return Branch{}, 0, fmt.Errorf("core: tree has no branches")
	}
	best := branches[0]
	bestR := terminalReward(best)
	for _, b := range branches[1:] {
		if r := terminalReward(b); r > bestR {
			best, bestR = b, r
		}
	}
	return best, bestR, nil
}

func terminalReward(b Branch) float64 {
	return b.Nodes[len(b.Nodes)-1].Reward
}

// MarshalJSON serialises the tree (training bookkeeping excluded).
func (t *ModelTree) MarshalJSON() ([]byte, error) {
	type alias ModelTree
	return json.Marshal((*alias)(t))
}

// UnmarshalJSON restores a serialised tree.
func (t *ModelTree) UnmarshalJSON(data []byte) error {
	type alias ModelTree
	if err := json.Unmarshal(data, (*alias)(t)); err != nil {
		return fmt.Errorf("core: decode model tree: %w", err)
	}
	return nil
}

// TreeStats summarises a model tree for reports.
type TreeStats struct {
	// Nodes is the total node count; Branches the root-to-terminal paths.
	Nodes, Branches int
	// Partitioned counts terminals that offload to the cloud.
	Partitioned int
	// EdgeStorageBytes is the summed parameter storage of every branch's
	// edge-resident model — what the device must hold to realise the whole
	// tree (an upper bound; shared prefixes are counted per branch).
	EdgeStorageBytes int64
	// MeanReward is the backward-estimated root reward.
	MeanReward float64
}

// Stats computes the tree's summary statistics.
func (t *ModelTree) Stats() (TreeStats, error) {
	st := TreeStats{MeanReward: 0}
	if t.Root != nil {
		st.MeanReward = t.Root.Reward
	}
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n == nil {
			return
		}
		st.Nodes++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	for _, b := range t.Branches() {
		st.Branches++
		term := b.Nodes[len(b.Nodes)-1]
		if term.Partitioned() {
			st.Partitioned++
		}
		cand, err := t.ComposeBranch(b)
		if err != nil {
			return TreeStats{}, err
		}
		edge := &nn.Model{Name: cand.Model.Name, Input: cand.Model.Input}
		if cand.Cut >= 0 {
			edge.Layers = cand.Model.Layers[:cand.Cut+1]
			bytes, err := edge.ParamBytes()
			if err != nil {
				return TreeStats{}, err
			}
			st.EdgeStorageBytes += bytes
		}
	}
	return st, nil
}

// Validate checks that every branch of the tree composes into a valid model.
func (t *ModelTree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("core: tree has no root")
	}
	if len(t.ClassMbps) == 0 {
		return fmt.Errorf("core: tree has no bandwidth classes")
	}
	for i := 1; i < len(t.ClassMbps); i++ {
		if t.ClassMbps[i] < t.ClassMbps[i-1] {
			return fmt.Errorf("core: bandwidth classes must be nondecreasing: %v", t.ClassMbps)
		}
	}
	for _, b := range t.Branches() {
		if _, err := t.ComposeBranch(b); err != nil {
			return err
		}
	}
	return nil
}
