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

// Apply returns a new model with the technique applied at layer index i, plus
// the number of layers the replacement occupies (so callers can advance their
// cursor). The input model is not modified. Apply validates the result; an
// error means the action is infeasible at this site and the caller should
// treat it as None.
func (t Technique) Apply(m *nn.Model, i int) (*nn.Model, int, error) {
	if t.ID == None {
		return m.Clone(), 1, nil
	}
	if !t.Applicable(m, i) {
		return nil, 0, fmt.Errorf("compress: %s not applicable to layer %d (%s) of %q",
			t.ID, i, m.Layers[i].Type, m.Name)
	}
	out := m.Clone()
	var span int
	var err error
	switch t.ID {
	case F1, F2:
		span, err = t.applySVD(out, i)
	case F3:
		span, err = t.applyGAP(out, i)
	case C1:
		span, err = t.applyMobileNet(out, i)
	case C2:
		span, err = t.applyMobileNetV2(out, i)
	case C3:
		span, err = t.applyFire(out, i)
	case W1:
		span, err = t.applyPruning(out, i)
	case Q1:
		span, err = t.applyQuantize(out, i)
	default:
		return nil, 0, fmt.Errorf("compress: unknown technique %d", t.ID)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := out.Normalize(); err != nil {
		return nil, 0, fmt.Errorf("compress: %s at layer %d leaves %q inconsistent: %w", t.ID, i, m.Name, err)
	}
	return out, span, nil
}

func (t Technique) applySVD(m *nn.Model, i int) (int, error) {
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
	return 2, nil
}

// applyGAP replaces the whole classifier head (Flatten + FC stack) with
// GAP → Flatten → FC(C → classes).
func (t Technique) applyGAP(m *nn.Model, i int) (int, error) {
	flat := flattenBefore(m, i)
	if flat < 0 {
		return 0, fmt.Errorf("compress: F3 needs a Flatten before the FC head")
	}
	rows, err := m.Costs()
	if err != nil {
		return 0, err
	}
	channels := rows[flat].In.C
	gap := nn.NewGlobalAvgPool()
	gap.Tag = t.ID.Tag()
	fl := nn.NewFlatten()
	fl.Tag = t.ID.Tag()
	fc := nn.NewFC(channels, m.Classes)
	fc.Tag = t.ID.Tag()
	replaceLayers(m, flat, len(m.Layers)-flat, gap, fl, fc)
	return 3, nil
}

func (t Technique) applyMobileNet(m *nn.Model, i int) (int, error) {
	l := m.Layers[i]
	dw := nn.NewDepthwiseConv(l.In, l.Kernel, l.Stride, l.Padding)
	pw := nn.NewConv(l.In, l.Out, 1, 1, 0)
	dw.Tag, pw.Tag = t.ID.Tag(), t.ID.Tag()
	replaceLayers(m, i, 1, dw, pw)
	return 2, nil
}

func (t Technique) applyMobileNetV2(m *nn.Model, i int) (int, error) {
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
	return len(newLayers), nil
}

func (t Technique) applyFire(m *nn.Model, i int) (int, error) {
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
	return 1, nil
}

func (t Technique) applyQuantize(m *nn.Model, i int) (int, error) {
	bits := t.Bits
	if bits <= 0 || bits >= 32 {
		bits = 8
	}
	m.Layers[i].Bits = bits
	m.Layers[i].Tag = t.ID.Tag()
	return 1, nil
}

func (t Technique) applyPruning(m *nn.Model, i int) (int, error) {
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
	return 1, nil
}

// replaceLayers substitutes `remove` layers starting at pos with newLayers,
// fixing Add skip indices that point past the edit.
func replaceLayers(m *nn.Model, pos, remove int, newLayers ...nn.Layer) {
	delta := len(newLayers) - remove
	rebuilt := make([]nn.Layer, 0, len(m.Layers)+delta)
	rebuilt = append(rebuilt, m.Layers[:pos]...)
	rebuilt = append(rebuilt, newLayers...)
	rebuilt = append(rebuilt, m.Layers[pos+remove:]...)
	for j := range rebuilt {
		if rebuilt[j].Type == nn.Add && rebuilt[j].SkipFrom >= pos+remove &&
			j >= pos+len(newLayers) {
			rebuilt[j].SkipFrom += delta
		}
	}
	m.Layers = rebuilt
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

// feedsAdd reports whether layer i's output is consumed by a residual Add
// (directly or as the skip source), in which case pruning its filters would
// desynchronise the two operands.
func feedsAdd(m *nn.Model, i int) bool {
	for j, l := range m.Layers {
		if l.Type != nn.Add {
			continue
		}
		if l.SkipFrom == i {
			return true
		}
		if i < j && i >= l.SkipFrom {
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
