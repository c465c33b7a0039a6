package compress

import (
	"fmt"
	"math"
	"math/rand"

	"cadmc/internal/nn"
	"cadmc/internal/tensor"
)

// ApplyWithWeights applies a technique to an executable network, carrying
// trained weights into the transformed structure where the mathematics allows
// it (F1/F2: real truncated SVD of the weight matrix; W1: L1-ranked filter
// removal with weight copy) and He-initialising structures with no exact
// weight mapping (C1/C2/C3/F3), which the caller then fine-tunes with
// knowledge distillation — exactly the paper's training recipe.
//
// It returns a fresh network; the input is not modified.
func ApplyWithWeights(net *nn.Net, i int, t Technique, rng *rand.Rand) (*nn.Net, error) {
	newModel, err := t.Apply(net.Model, i)
	if err != nil {
		return nil, err
	}
	out, err := nn.NewNet(newModel, rng)
	if err != nil {
		return nil, fmt.Errorf("compress: transformed model not executable: %w", err)
	}
	// Copy weights for all untouched layers. Layer correspondence: indices
	// below i map 1:1; indices above i+removed map with an offset. F3
	// replaces the whole head, so only the prefix maps.
	switch t.ID {
	case None:
		copyRange(out, net, 0, len(net.Model.Layers), 0)
	case F1, F2:
		copyRange(out, net, 0, i, 0)
		copyRange(out, net, i+1, len(net.Model.Layers), 1)
		if err := svdCarry(out, net, i, t, rng); err != nil {
			return nil, err
		}
	case W1:
		copyRange(out, net, 0, i, 0)
		if err := pruneCarry(out, net, i); err != nil {
			return nil, err
		}
	case F3:
		flat := flattenBefore(net.Model, i)
		copyRange(out, net, 0, flat, 0)
	case C1, C2, C3:
		copyRange(out, net, 0, i, 0)
		copyRange(out, net, i+1, len(net.Model.Layers), len(newModel.Layers)-len(net.Model.Layers))
	case Q1:
		copyRange(out, net, 0, len(net.Model.Layers), 0)
		bits := out.Model.Layers[i].Bits
		fakeQuantize(out.Weights[i], bits)
		fakeQuantize(out.Biases[i], bits)
	default:
		return nil, fmt.Errorf("compress: unknown technique %d", t.ID)
	}
	return out, nil
}

// fakeQuantize snaps values to a symmetric b-bit integer grid and back — the
// standard fake-quantisation used to measure what low-precision storage does
// to accuracy without integer kernels.
func fakeQuantize(t *tensor.Tensor, bits int) {
	if t == nil || bits <= 0 || bits >= 32 || len(t.Data) == 0 {
		return
	}
	maxAbs := 0.0
	for _, v := range t.Data {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return
	}
	levels := float64(int64(1)<<(bits-1)) - 1 // e.g. 127 for 8 bits
	scale := maxAbs / levels
	for i, v := range t.Data {
		t.Data[i] = math.Round(v/scale) * scale
	}
}

// copyRange copies weights from src layer j to dst layer j+offset for
// j in [from, to), skipping layers whose shapes no longer match (e.g. a
// pruned conv's successor before retraining).
func copyRange(dst, src *nn.Net, from, to, offset int) {
	for j := from; j < to; j++ {
		if src.Weights[j] == nil {
			continue
		}
		dj := j + offset
		if dj < 0 || dj >= len(dst.Weights) || dst.Weights[dj] == nil {
			continue
		}
		if len(dst.Weights[dj].Data) != len(src.Weights[j].Data) {
			continue
		}
		copy(dst.Weights[dj].Data, src.Weights[j].Data)
		copy(dst.Biases[dj].Data, src.Biases[j].Data)
	}
}

// svdCarry factors the original FC weight matrix W (out×in) into the two new
// FC layers at positions i and i+1 of dst using a rank-k truncated SVD.
func svdCarry(dst, src *nn.Net, i int, t Technique, rng *rand.Rand) error {
	w := src.Weights[i]
	k := dst.Model.Layers[i].Out
	res, err := tensor.TruncatedSVD(w, k, 40, rng)
	if err != nil {
		return fmt.Errorf("compress: svd carry: %w", err)
	}
	left, right := res.Factors() // out×k, k×in
	// First new layer computes h = R·x (k×in), second computes y = L·h + b.
	copy(dst.Weights[i].Data, right.Data)
	dst.Biases[i].Zero()
	copy(dst.Weights[i+1].Data, left.Data)
	copy(dst.Biases[i+1].Data, src.Biases[i].Data)
	if t.ID == F2 && t.Sparsity > 0 {
		tensor.Sparsify(dst.Weights[i], t.Sparsity)
		tensor.Sparsify(dst.Weights[i+1], t.Sparsity)
	}
	return nil
}

// pruneCarry keeps the filters of conv layer i with the largest L1 norms and
// rewires the immediately consuming conv/FC layer's input weights to match.
// Intervening shape-preserving layers (ReLU, pools) are handled by position.
func pruneCarry(dst, src *nn.Net, i int) error {
	srcW := src.Weights[i]
	oldOut := src.Model.Layers[i].Out
	newOut := dst.Model.Layers[i].Out
	fanIn := srcW.Shape[1]
	type ranked struct {
		idx  int
		norm float64
	}
	order := make([]ranked, oldOut)
	for f := 0; f < oldOut; f++ {
		s := 0.0
		for _, v := range srcW.Data[f*fanIn : (f+1)*fanIn] {
			s += math.Abs(v)
		}
		order[f] = ranked{idx: f, norm: s}
	}
	// Selection of the top newOut filters, preserving original order.
	for a := 0; a < len(order); a++ {
		for b := a + 1; b < len(order); b++ {
			if order[b].norm > order[a].norm {
				order[a], order[b] = order[b], order[a]
			}
		}
	}
	keep := make([]int, newOut)
	for f := 0; f < newOut; f++ {
		keep[f] = order[f].idx
	}
	for a := 0; a < len(keep); a++ {
		for b := a + 1; b < len(keep); b++ {
			if keep[b] < keep[a] {
				keep[a], keep[b] = keep[b], keep[a]
			}
		}
	}
	for f, kf := range keep {
		copy(dst.Weights[i].Data[f*fanIn:(f+1)*fanIn], srcW.Data[kf*fanIn:(kf+1)*fanIn])
		dst.Biases[i].Data[f] = src.Biases[i].Data[kf]
	}
	// Rewire the next weighted layer's input channels.
	j := i + 1
	for j < len(src.Model.Layers) && src.Weights[j] == nil {
		j++
	}
	if j >= len(src.Model.Layers) {
		return nil
	}
	// Layers after the rewired consumer keep their shapes.
	copyRange(dst, src, j+1, len(src.Model.Layers), 0)
	next := src.Model.Layers[j]
	switch next.Type {
	case nn.Conv:
		kk := next.Kernel * next.Kernel
		for o := 0; o < next.Out; o++ {
			for c, kc := range keep {
				copy(dst.Weights[j].Data[(o*newOut+c)*kk:(o*newOut+c+1)*kk],
					src.Weights[j].Data[(o*oldOut+kc)*kk:(o*oldOut+kc+1)*kk])
			}
		}
		copy(dst.Biases[j].Data, src.Biases[j].Data)
	case nn.FC:
		// The flatten interleaves channel-major: input feature (c, pos) maps
		// to index c·HW + pos.
		hw := next.In / oldOut
		newIn := dst.Model.Layers[j].In
		for o := 0; o < next.Out; o++ {
			for c, kc := range keep {
				copy(dst.Weights[j].Data[o*newIn+c*hw:o*newIn+(c+1)*hw],
					src.Weights[j].Data[o*next.In+kc*hw:o*next.In+(kc+1)*hw])
			}
		}
		copy(dst.Biases[j].Data, src.Biases[j].Data)
	}
	return nil
}
