package nn

import "fmt"

// Block is a contiguous slice of model layers [Start, End).
type Block struct {
	Start, End int
}

// Len returns the number of layers in the block.
func (b Block) Len() int { return b.End - b.Start }

// CutPoints returns the layer indices i after which the model may legally be
// partitioned (the activation after layer i crosses the network). A cut is
// legal when:
//
//   - it does not fall strictly inside a residual span (between a skip
//     source and its Add), which would require shipping two tensors; and
//   - it does not separate a weight layer from its immediately following
//     activation/batch-norm (those fire as one fused unit on real runtimes).
//
// Index -1 (offload the raw input) is always legal and not included here.
func (m *Model) CutPoints() ([]int, error) {
	if _, err := m.InferDims(); err != nil {
		return nil, err
	}
	inSkip := make([]bool, len(m.Layers))
	for j, l := range m.Layers {
		if l.Type != Add {
			continue
		}
		for i := l.SkipFrom + 1; i < j; i++ {
			inSkip[i] = true
		}
	}
	points := make([]int, 0, len(m.Layers))
	for i := range m.Layers {
		if inSkip[i] {
			continue
		}
		if i+1 < len(m.Layers) {
			next := m.Layers[i+1].Type
			if m.Layers[i].HasWeights() && (next == ReLU || next == BatchNorm) {
				continue
			}
		}
		points = append(points, i)
	}
	return points, nil
}

// SliceBlocks partitions the model into n contiguous blocks whose MACC
// weights are as balanced as legal cut points allow. The decision engine
// works at this granularity: the paper uses N = 3 blocks.
func (m *Model) SliceBlocks(n int) ([]Block, error) {
	if n <= 0 {
		return nil, fmt.Errorf("nn: block count must be positive, got %d", n)
	}
	if n == 1 {
		return []Block{{Start: 0, End: len(m.Layers)}}, nil
	}
	cuts, err := m.CutPoints()
	if err != nil {
		return nil, err
	}
	// Interior cut candidates only (a cut at the last layer yields an empty
	// block).
	candidates := make([]int, 0, len(cuts))
	for _, c := range cuts {
		if c < len(m.Layers)-1 {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) < n-1 {
		return nil, fmt.Errorf("nn: model %q has %d legal interior cuts, need %d for %d blocks",
			m.Name, len(candidates), n-1, n)
	}
	rows, err := m.Costs()
	if err != nil {
		return nil, err
	}
	prefix := make([]int64, len(rows)+1)
	for i, r := range rows {
		prefix[i+1] = prefix[i] + r.MACCs
	}
	total := prefix[len(rows)]
	// Greedy: the j-th boundary targets j/n of the cumulative MACCs; pick the
	// closest still-available candidate to each target, left to right.
	chosen := make([]int, 0, n-1)
	lastIdx := -1
	for j := 1; j < n; j++ {
		target := total * int64(j) / int64(n)
		best, bestDist := -1, int64(-1)
		for _, c := range candidates {
			if c <= lastIdx {
				continue
			}
			// Leave enough candidates for the remaining boundaries.
			remainingAfter := 0
			for _, c2 := range candidates {
				if c2 > c {
					remainingAfter++
				}
			}
			if remainingAfter < n-1-j {
				continue
			}
			d := prefix[c+1] - target
			if d < 0 {
				d = -d
			}
			if best == -1 || d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("nn: model %q: cannot place block boundary %d of %d", m.Name, j, n-1)
		}
		chosen = append(chosen, best)
		lastIdx = best
	}
	blocks := make([]Block, 0, n)
	start := 0
	for _, c := range chosen {
		blocks = append(blocks, Block{Start: start, End: c + 1})
		start = c + 1
	}
	blocks = append(blocks, Block{Start: start, End: len(m.Layers)})
	return blocks, nil
}

// BlockMACCs returns the MACC total of each block.
func (m *Model) BlockMACCs(blocks []Block) ([]int64, error) {
	rows, err := m.Costs()
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(blocks))
	for i, b := range blocks {
		for j := b.Start; j < b.End && j < len(rows); j++ {
			out[i] += rows[j].MACCs
		}
	}
	return out, nil
}

// Slice returns a copy of the layers in block b.
func (m *Model) Slice(b Block) []Layer {
	out := make([]Layer, b.Len())
	copy(out, m.Layers[b.Start:b.End])
	return out
}
