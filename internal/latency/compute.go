package latency

import (
	"fmt"
	"math"

	"cadmc/internal/nn"
)

// layerMS is the Eq. 4–5 compute latency in milliseconds of layer l, whose
// cost-table row is r, on dev.
func layerMS(l nn.Layer, r nn.LayerCost, dev Device) float64 {
	if r.MACCs == 0 && !l.HasWeights() {
		return 0
	}
	spatial := false
	var coeff float64
	switch l.Type {
	case nn.Conv:
		coeff = dev.convCoeff(l.Kernel)
		spatial = true
	case nn.DepthwiseConv:
		coeff = dev.convCoeff(l.Kernel)
		if dev.DepthwiseInefficiency > 1 {
			coeff *= dev.DepthwiseInefficiency
		}
		spatial = true
	case nn.Fire:
		// Fire is 1×1- and 3×3-conv work; use the blended 3×3 coefficient.
		coeff = dev.convCoeff(3)
		spatial = true
	case nn.FC:
		coeff = dev.FCCoeffNS
	case nn.Add:
		if l.Out > 0 { // projection shortcut is a 1×1 conv
			coeff = dev.convCoeff(1)
			spatial = true
		} else {
			return 0
		}
	default:
		// Pooling, normalisation, activation, dropout: negligible per the
		// paper's measurements ("cost little time ... and can be ignored");
		// batch-norm folds into the preceding convolution on real runtimes.
		return 0
	}
	if spatial && dev.SmallMapPixels > 0 {
		hw := float64(r.Out.H * r.Out.W)
		if hw > 0 {
			coeff *= 1 + math.Sqrt(dev.SmallMapPixels/hw)
		}
	}
	if l.Bits > 0 && l.Bits < 32 {
		// Quantised kernels run on integer SIMD paths; int8 is ≈2.2×
		// faster than float32 on mobile CPUs.
		coeff *= 0.45
	}
	return (coeff*float64(r.MACCs) + dev.LayerOverheadNS) / 1e6
}

// RangeMS returns the summed computational latency in milliseconds of layers
// [from, to) of m on dev, read from m's cost-table rows (nn.Model.Costs). An
// empty range costs zero.
func RangeMS(m *nn.Model, rows []nn.LayerCost, from, to int, dev Device) (float64, error) {
	if len(rows) != len(m.Layers) {
		return 0, fmt.Errorf("latency: %d cost rows for %d layers", len(rows), len(m.Layers))
	}
	if from < 0 || to > len(m.Layers) || from > to {
		return 0, fmt.Errorf("latency: range [%d,%d) invalid for %d layers", from, to, len(m.Layers))
	}
	return rangeMS(m, rows, from, to, dev), nil
}

// rangeMS is RangeMS on a range already checked. The sum runs ascending from
// zero, layer by layer, so every caller's total has the same bits; a
// prefix-sum difference would not.
func rangeMS(m *nn.Model, rows []nn.LayerCost, from, to int, dev Device) float64 {
	total := 0.0
	for i := from; i < to; i++ {
		total += layerMS(m.Layers[i], rows[i], dev)
	}
	return total
}

// ModelMS returns the full-model computational latency in milliseconds.
func ModelMS(m *nn.Model, dev Device) (float64, error) {
	rows, err := m.Costs()
	if err != nil {
		return 0, err
	}
	return rangeMS(m, rows, 0, len(m.Layers), dev), nil
}

// CutBytes returns the bytes that cross the network when m is cut after
// layer cut (the Estimator.EndToEnd convention): the raw input at cut == -1,
// otherwise layer cut's output, read from m's cost-table rows.
func CutBytes(m *nn.Model, rows []nn.LayerCost, cut int) int64 {
	if cut < 0 {
		return m.Input.Bytes()
	}
	return rows[cut].OutBytes
}
