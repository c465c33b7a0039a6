// Package compress implements the paper's Table II compression techniques as
// structural transforms on nn.Model layer sequences:
//
//	F1 (SVD)                  m×n FC weight → m×k and k×n FCs, k ≪ min(m,n)
//	F2 (KSVD)                 as F1 with sparse factor matrices
//	F3 (Global Avg Pooling)   the FC head → a global-average-pooling layer
//	C1 (MobileNet)            Conv → depth-wise 3×3 + point-wise 1×1
//	C2 (MobileNetV2)          as C1 with an extra point-wise conv and residual
//	C3 (SqueezeNet)           Conv → Fire module
//	W1 (Filter Pruning)       Conv with insignificant filters removed
//
// Each transform rewrites the architecture (the state string of the MDP) and
// tags the produced layers with its name so the accuracy oracle can attribute
// degradation. Weight-carrying variants for the executable subset live in
// weights.go.
package compress

import (
	"fmt"
	"slices"
	"strconv"

	"cadmc/internal/nn"
)

// ID identifies a compression technique.
type ID int

// Technique identifiers. None is the explicit "leave this layer alone"
// action — it is part of the controller's action space.
const (
	None ID = iota + 1
	F1
	F2
	F3
	C1
	C2
	C3
	W1
	// Q1 is the quantisation extension (Deep Compression-style 8-bit
	// weights), beyond the paper's Table II but listed in its related work.
	Q1
)

var idNames = map[ID]string{
	None: "None",
	F1:   "F1(SVD)",
	F2:   "F2(KSVD)",
	F3:   "F3(GAP)",
	C1:   "C1(MobileNet)",
	C2:   "C2(MobileNetV2)",
	C3:   "C3(SqueezeNet)",
	W1:   "W1(FilterPruning)",
	Q1:   "Q1(Quantize)",
}

// String returns the technique's display name.
func (id ID) String() string {
	if n, ok := idNames[id]; ok {
		return n
	}
	return "ID(" + strconv.Itoa(int(id)) + ")"
}

// Tag returns the short provenance tag written onto transformed layers.
func (id ID) Tag() string {
	switch id {
	case F1:
		return "F1"
	case F2:
		return "F2"
	case F3:
		return "F3"
	case C1:
		return "C1"
	case C2:
		return "C2"
	case C3:
		return "C3"
	case W1:
		return "W1"
	case Q1:
		return "Q1"
	default:
		return ""
	}
}

// Technique is a parameterised compression transform.
type Technique struct {
	ID ID
	// RankRatio sets k = max(1, ratio·min(m,n)) for F1/F2.
	RankRatio float64
	// Sparsity is the zero fraction of the KSVD factors (F2).
	Sparsity float64
	// KeepRatio is the fraction of filters kept by W1.
	KeepRatio float64
	// Expansion is the MobileNetV2 inverted-bottleneck expansion factor (C2).
	Expansion int
	// SqueezeRatio sets the Fire squeeze width as a fraction of Cout (C3).
	SqueezeRatio float64
	// Bits is the quantisation width (Q1), default 8.
	Bits int
}

// String renders the technique with its headline parameter.
func (t Technique) String() string { return t.ID.String() }

// Catalog returns the default-parameterised technique set, None first —
// exactly the action space of the paper's compression controller.
func Catalog() []Technique {
	return []Technique{
		{ID: None},
		{ID: F1, RankRatio: 0.25},
		{ID: F2, RankRatio: 0.35, Sparsity: 0.6},
		{ID: F3},
		{ID: C1},
		{ID: C2, Expansion: 2},
		{ID: C3, SqueezeRatio: 0.125},
		{ID: W1, KeepRatio: 0.5},
		{ID: Q1, Bits: 8},
	}
}

// Applicable reports whether the technique may be applied to layer l of m.
// Table II's "Applied Layer Types" column: F* apply to FC layers, C*/W1 to
// (some) Conv layers.
func (t Technique) Applicable(m *nn.Model, i int) bool {
	if i < 0 || i >= len(m.Layers) {
		return false
	}
	l := m.Layers[i]
	switch t.ID {
	case None:
		return true
	case F1, F2:
		return l.Type == nn.FC && l.Tag == "" && minInt(l.In, l.Out) >= 8
	case F3:
		// Applicable at the first FC of an uncompressed head that still has
		// spatial context to pool (a Flatten right before the FC stage).
		// The model must know its class count: F3 rebuilds the classifier,
		// so it cannot bind to a headless edge sub-model.
		return l.Type == nn.FC && l.Tag == "" && m.Classes > 0 &&
			firstFCIndex(m) == i && flattenBefore(m, i) >= 0
	case C1, C2:
		return l.Type == nn.Conv && l.Tag == "" && l.Kernel >= 3
	case C3:
		// Fire only compresses when the input is wide enough; on a narrow
		// stem (e.g. 3 input channels) it would cost more MACCs than the
		// conv it replaces.
		return l.Type == nn.Conv && l.Tag == "" && l.Kernel >= 3 && l.Stride == 1 &&
			l.Out >= 8 && l.In >= 16
	case W1:
		return l.Type == nn.Conv && l.Tag == "" && l.Out >= 4 && !feedsAdd(m, i)
	case Q1:
		return (l.Type == nn.Conv || l.Type == nn.FC) && l.Tag == "" && l.Bits == 0
	default:
		return false
	}
}

// Apply returns a new model with the technique applied at layer index i.
// The input model is not modified. An error means the technique does not
// bind at this site.
func (t Technique) Apply(m *nn.Model, i int) (*nn.Model, error) {
	if t.ID == None {
		return m.Clone(), nil
	}
	if !t.Applicable(m, i) {
		return nil, fmt.Errorf("compress: %s not applicable to layer %d (%s) of %q",
			t.ID, i, m.Layers[i].Type, m.Name)
	}
	out := m.Clone()
	if err := t.apply(out, i); err != nil {
		return nil, err
	}
	if err := out.Normalize(); err != nil {
		return nil, fmt.Errorf("compress: %s at layer %d leaves %q inconsistent: %w", t.ID, i, m.Name, err)
	}
	return out, nil
}

// apply rewrites m in place at layer i, where the technique is Applicable
// (so neither None nor an unknown ID reaches it).
// It leaves the In fields downstream of i stale: the caller normalises once
// after its last edit. Layers before i must be consistent (F3 prices the
// trunk it keeps).
func (t Technique) apply(m *nn.Model, i int) error {
	switch t.ID {
	case F1, F2:
		t.applySVD(m, i)
	case F3:
		return t.applyGAP(m, i)
	case C1:
		t.applyMobileNet(m, i)
	case C2:
		t.applyMobileNetV2(m, i)
	case C3:
		t.applyFire(m, i)
	case W1:
		t.applyPruning(m, i)
	case Q1:
		t.applyQuantize(m, i)
	}
	return nil
}

func (t Technique) applySVD(m *nn.Model, i int) {
	l := m.Layers[i]
	k := int(t.RankRatio * float64(minInt(l.In, l.Out)))
	if k < 1 {
		k = 1
	}
	a := nn.NewFC(l.In, k)
	b := nn.NewFC(k, l.Out)
	a.Tag, b.Tag = t.ID.Tag(), t.ID.Tag()
	if t.ID == F2 {
		a.Sparsity, b.Sparsity = t.Sparsity, t.Sparsity
	}
	replaceLayers(m, i, 1, a, b)
}

// applyGAP replaces the whole classifier head (Flatten + FC stack) with
// GAP → Flatten → FC(C → classes).
func (t Technique) applyGAP(m *nn.Model, i int) error {
	flat := flattenBefore(m, i) // ≥ 0: Applicable checked it
	// Only the trunk the head pools is priced: a plan may already have
	// rewritten the head, and it is replaced wholesale anyway.
	trunk := nn.Model{Name: m.Name, Input: m.Input, Layers: m.Layers[:flat+1]}
	rows, err := trunk.Costs()
	if err != nil {
		return err
	}
	channels := rows[flat].In.C
	gap := nn.NewGlobalAvgPool()
	gap.Tag = t.ID.Tag()
	fl := nn.NewFlatten()
	fl.Tag = t.ID.Tag()
	fc := nn.NewFC(channels, m.Classes)
	fc.Tag = t.ID.Tag()
	replaceLayers(m, flat, len(m.Layers)-flat, gap, fl, fc)
	return nil
}

func (t Technique) applyMobileNet(m *nn.Model, i int) {
	l := m.Layers[i]
	dw := nn.NewDepthwiseConv(l.In, l.Kernel, l.Stride, l.Padding)
	pw := nn.NewConv(l.In, l.Out, 1, 1, 0)
	dw.Tag, pw.Tag = t.ID.Tag(), t.ID.Tag()
	replaceLayers(m, i, 1, dw, pw)
}

func (t Technique) applyMobileNetV2(m *nn.Model, i int) {
	l := m.Layers[i]
	exp := t.Expansion
	if exp < 1 {
		exp = 2
	}
	mid := l.In * exp
	expand := nn.NewConv(l.In, mid, 1, 1, 0)
	dw := nn.NewDepthwiseConv(mid, l.Kernel, l.Stride, l.Padding)
	project := nn.NewConv(mid, l.Out, 1, 1, 0)
	expand.Tag, dw.Tag, project.Tag = t.ID.Tag(), t.ID.Tag(), t.ID.Tag()
	newLayers := []nn.Layer{expand, dw, project}
	if l.In == l.Out && l.Stride == 1 && i > 0 {
		// Residual link around the inverted bottleneck.
		add := nn.NewAdd(i - 1)
		add.Tag = t.ID.Tag()
		newLayers = append(newLayers, add)
	}
	replaceLayers(m, i, 1, newLayers...)
}

func (t Technique) applyFire(m *nn.Model, i int) {
	l := m.Layers[i]
	ratio := t.SqueezeRatio
	if ratio <= 0 {
		ratio = 0.125
	}
	squeeze := int(ratio * float64(l.Out))
	if squeeze < 1 {
		squeeze = 1
	}
	fire := nn.NewFire(l.In, squeeze, l.Out)
	fire.Tag = t.ID.Tag()
	replaceLayers(m, i, 1, fire)
}

func (t Technique) applyQuantize(m *nn.Model, i int) {
	bits := t.Bits
	if bits <= 0 || bits >= 32 {
		bits = 8
	}
	m.Layers[i].Bits = bits
	m.Layers[i].Tag = t.ID.Tag()
}

func (t Technique) applyPruning(m *nn.Model, i int) {
	keep := t.KeepRatio
	if keep <= 0 || keep > 1 {
		keep = 0.5
	}
	out := int(keep * float64(m.Layers[i].Out))
	if out < 1 {
		out = 1
	}
	m.Layers[i].Out = out
	m.Layers[i].Tag = t.ID.Tag()
}

// replaceLayers substitutes `remove` layers starting at pos with newLayers
// in place (the slice grows only past its capacity), fixing Add skip indices
// that point past the edit.
func replaceLayers(m *nn.Model, pos, remove int, newLayers ...nn.Layer) {
	delta := len(newLayers) - remove
	m.Layers = slices.Replace(m.Layers, pos, pos+remove, newLayers...)
	for j := pos + len(newLayers); j < len(m.Layers); j++ {
		if m.Layers[j].Type == nn.Add && m.Layers[j].SkipFrom >= pos+remove {
			m.Layers[j].SkipFrom += delta
		}
	}
}

func firstFCIndex(m *nn.Model) int {
	for i, l := range m.Layers {
		if l.Type == nn.FC {
			return i
		}
	}
	return -1
}

// flattenBefore returns the index of the Flatten layer that starts the FC
// head containing layer i, or -1.
func flattenBefore(m *nn.Model, i int) int {
	for j := i - 1; j >= 0; j-- {
		switch m.Layers[j].Type {
		case nn.Flatten:
			return j
		case nn.FC, nn.ReLU, nn.Dropout:
			continue
		default:
			return -1
		}
	}
	return -1
}

// feedsAdd reports whether pruning layer i's filters would desynchronise a
// residual Add. The pruned width lasts until the next layer that sets its
// own (Conv, FC or Fire), so it does iff an Add after i takes its skip from
// before that layer: i lies inside the Add's residual span, or i's channels
// reach the Add, as its operand or as its skip source, through layers that
// keep the channel count.
func feedsAdd(m *nn.Model, i int) bool {
	next := i + 1
	for next < len(m.Layers) {
		if t := m.Layers[next].Type; t == nn.Conv || t == nn.FC || t == nn.Fire {
			break
		}
		next++
	}
	for _, l := range m.Layers[i+1:] {
		if l.Type == nn.Add && l.SkipFrom < next {
			return true
		}
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
