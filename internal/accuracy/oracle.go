// Package accuracy provides the accuracy oracle for full-size models.
//
// The original evaluation trains every composed DNN on CIFAR-10 and measures
// test accuracy. Reproducing that requires a GPU training stack, which the
// decision engine under study never looks inside: the search algorithms only
// consume a deterministic accuracy number per architecture with the right
// ordering (more aggressive compression → larger loss; knowledge distillation
// recovers part of it; early layers are more sensitive). This package models
// exactly that, calibrated to the paper's published numbers — base accuracy
// 92.01% (VGG11) / 84.08% (AlexNet), per-technique degradation of a few
// tenths of a percent, and overall compressed-model losses of ≈1–3.5%.
//
// The model's qualitative assumptions are validated empirically by the
// tensor/nn substrate: internal/accuracy's grounding test really trains a
// CNN, really applies SVD/pruning transforms to its weights, and measures
// that the assumed orderings hold.
package accuracy

import (
	"fmt"
	"sort"

	"cadmc/internal/nn"
)

// Oracle maps architectures to expected test accuracy (percent).
type Oracle struct {
	// Base holds the uncompressed test accuracy per base-model name.
	Base map[string]float64
	// PenaltyPerLayer is the accuracy cost, in percentage points, of one
	// transformed layer carrying the given provenance tag.
	PenaltyPerLayer map[string]float64
	// DepthEarly and DepthLate scale penalties by layer position: early
	// layers produce features every downstream layer depends on, so
	// compressing them costs more. Penalty at fractional depth d∈[0,1] is
	// scaled by DepthEarly + (DepthLate-DepthEarly)·d.
	DepthEarly, DepthLate float64
	// DistillRecovery is the fraction of the loss recovered by training the
	// composed DNN on the base DNN's logits (the paper's Sec. VI-D trick).
	DistillRecovery float64
	// NoisePct is the half-width of the deterministic per-architecture
	// jitter (training-run variance), derived from the model hash.
	NoisePct float64
	// FloorPct bounds how low accuracy can fall (random-guessing region).
	FloorPct float64
}

// New returns the oracle calibrated against the paper's evaluation.
func New() *Oracle {
	return &Oracle{
		Base: map[string]float64{
			"VGG11":     92.01,
			"VGG19":     93.10,
			"AlexNet":   84.08,
			"ResNet50":  93.62,
			"ResNet101": 93.75,
			"ResNet152": 93.80,
		},
		PenaltyPerLayer: map[string]float64{
			"F1": 0.10, // SVD: mild, two thin FCs per application
			"F2": 0.16, // KSVD: sparsity costs more
			"F3": 0.13, // GAP head: three replacement layers
			"C1": 0.15, // MobileNet split
			"C2": 0.10, // MobileNetV2: more capacity per application
			"C3": 0.30, // Fire: aggressive bottleneck
			"W1": 0.25, // half the filters gone
			"Q1": 0.10, // 8-bit quantisation (extension technique)
		},
		DepthEarly:      1.35,
		DepthLate:       0.65,
		DistillRecovery: 0.45,
		NoisePct:        0.12,
		FloorPct:        50,
	}
}

// Validate checks the oracle configuration.
func (o *Oracle) Validate() error {
	if len(o.Base) == 0 {
		return fmt.Errorf("accuracy: oracle has no base accuracies")
	}
	names := make([]string, 0, len(o.Base))
	for name := range o.Base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if a := o.Base[name]; a <= 0 || a > 100 {
			return fmt.Errorf("accuracy: base accuracy for %q out of range: %v", name, a)
		}
	}
	if o.DistillRecovery < 0 || o.DistillRecovery >= 1 {
		return fmt.Errorf("accuracy: distill recovery %v out of [0,1)", o.DistillRecovery)
	}
	return nil
}

// Evaluate returns the expected test accuracy (percent) of model m, assumed
// to be a transformation of the base model named m.Name. distilled reports
// whether the composed model is trained with knowledge distillation.
//
// Accuracy depends only on the architecture — not on where it is partitioned
// (Eq. 2: "accuracy has nothing to do with where we partition").
func (o *Oracle) Evaluate(m *nn.Model, distilled bool) (float64, error) {
	base, ok := o.Base[m.Name]
	if !ok {
		return 0, fmt.Errorf("accuracy: no base accuracy for model %q", m.Name)
	}
	n := len(m.Layers)
	loss := 0.0
	for i, l := range m.Layers {
		p, ok := o.PenaltyPerLayer[l.Tag]
		if !ok || p == 0 {
			continue
		}
		d := 0.0
		if n > 1 {
			d = float64(i) / float64(n-1)
		}
		scale := o.DepthEarly + (o.DepthLate-o.DepthEarly)*d
		loss += p * scale
	}
	if distilled {
		loss *= 1 - o.DistillRecovery
	}
	acc := base - loss + o.jitter(m)
	if acc < o.FloorPct {
		acc = o.FloorPct
	}
	if acc > base {
		// Jitter must not let a compressed model beat its own teacher.
		acc = base
	}
	return acc, nil
}

// jitter derives a deterministic per-architecture perturbation in
// [-NoisePct, +NoisePct] from the model hash — the run-to-run variance of a
// real training job, reproducible across calls.
func (o *Oracle) jitter(m *nn.Model) float64 {
	if o.NoisePct <= 0 {
		return 0
	}
	h := m.Hash()
	// Map 64 hash bits to [0,1).
	u := float64(h%1_000_003) / 1_000_003
	if isBaseArchitecture(m) {
		return 0
	}
	return (2*u - 1) * o.NoisePct
}

// isBaseArchitecture reports whether no layer carries a compression tag.
func isBaseArchitecture(m *nn.Model) bool {
	for _, l := range m.Layers {
		if l.Tag != "" {
			return false
		}
	}
	return true
}
