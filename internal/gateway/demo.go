package gateway

import (
	"fmt"

	"cadmc/internal/core"
	"cadmc/internal/nn"
)

// DemoTree hand-builds a small composed model tree for the gateway's tests
// and the emulator's gateway workload: a 10-layer CNN sliced into 3 blocks
// with K = len(classMbps) - typically 2 - bandwidth classes. The qualitative
// policy matches the paper: the poor class stays edge-resident, the good
// class partitions as early as possible. classMbps must be nondecreasing
// with at least two levels.
func DemoTree(classMbps []float64) (*core.ModelTree, error) {
	if len(classMbps) != 2 {
		return nil, fmt.Errorf("gateway: demo tree wants exactly 2 class levels, got %d", len(classMbps))
	}
	base := &nn.Model{
		Name:    "gateway-demo",
		Input:   nn.Shape{C: 3, H: 16, W: 16},
		Classes: 10,
		Layers: []nn.Layer{
			nn.NewConv(3, 8, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewConv(8, 16, 3, 1, 1),
			nn.NewReLU(),
			nn.NewMaxPool(2, 2),
			nn.NewFlatten(),
			nn.NewFC(16*4*4, 48),
			nn.NewReLU(),
			nn.NewFC(48, 10),
		},
	}
	if err := base.Normalize(); err != nil {
		return nil, err
	}
	block0 := append([]nn.Layer(nil), base.Layers[0:3]...)
	block1 := append([]nn.Layer(nil), base.Layers[3:6]...)
	block2 := append([]nn.Layer(nil), base.Layers[6:10]...)
	tree := &core.ModelTree{
		Base:      base,
		Blocks:    []nn.Block{{Start: 0, End: 3}, {Start: 3, End: 6}, {Start: 6, End: 10}},
		ClassMbps: append([]float64(nil), classMbps...),
		RootClass: 0,
		Root: &core.TreeNode{
			BlockIdx:   0,
			Fork:       -1,
			EdgeLayers: block0,
			Children: []*core.TreeNode{
				{
					BlockIdx:   1,
					Fork:       0,
					EdgeLayers: block1,
					Children: []*core.TreeNode{
						// Poor-within-poor: fully edge-resident.
						{BlockIdx: 2, Fork: 0, EdgeLayers: block2},
						// Recovering bandwidth: partition before the dense head.
						{BlockIdx: 2, Fork: 1, CloudTail: block2},
					},
				},
				// Good bandwidth: partition right after the first block.
				{BlockIdx: 1, Fork: 1, CloudTail: append(append([]nn.Layer(nil), block1...), block2...)},
			},
		},
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return tree, nil
}
