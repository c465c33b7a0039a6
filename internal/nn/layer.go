// Package nn is the DNN architecture substrate.
//
// It represents a deep neural network exactly the way the paper's decision
// engine sees it: a sequence of layers, each described by its hyper-parameter
// tuple x_i = (l, k, s, p, n) (Eq. 1) — layer type, kernel size, stride,
// padding, and output channels — optionally extended with skip-connection
// endpoints for residual networks. On top of that representation the package
// provides shape inference, MACC counting (Eqs. 4–5), feature-map byte sizes
// at every cut point, block slicing, a model zoo (VGG11/VGG19/AlexNet/
// ResNet50/101/152), and a small weight-carrying executable subset used to
// ground the accuracy oracle.
package nn

import "strconv"

// LayerType enumerates the layer kinds understood by the substrate.
type LayerType int

// Layer kinds. DepthwiseConv and Fire exist because the compression
// techniques C1/C2 (MobileNet) and C3 (SqueezeNet) replace standard
// convolutions with those structures, and their MACC formulas differ.
const (
	Conv LayerType = iota + 1
	DepthwiseConv
	FC
	MaxPool
	AvgPool
	GlobalAvgPool
	ReLU
	BatchNorm
	Dropout
	Flatten
	Fire
	Add
)

var layerNames = map[LayerType]string{
	Conv:          "Conv",
	DepthwiseConv: "DWConv",
	FC:            "FC",
	MaxPool:       "MaxPool",
	AvgPool:       "AvgPool",
	GlobalAvgPool: "GAP",
	ReLU:          "ReLU",
	BatchNorm:     "BN",
	Dropout:       "Dropout",
	Flatten:       "Flatten",
	Fire:          "Fire",
	Add:           "Add",
}

// String returns the short layer-type name.
func (t LayerType) String() string {
	if n, ok := layerNames[t]; ok {
		return n
	}
	return "LayerType(" + strconv.Itoa(int(t)) + ")"
}

// Valid reports whether t is a known layer type.
func (t LayerType) Valid() bool {
	_, ok := layerNames[t]
	return ok
}

// Layer is one DNN layer expressed as its hyper-parameter tuple.
//
// The zero value is not a valid layer; construct layers through the helper
// constructors or the model zoo.
type Layer struct {
	Type LayerType `json:"type"`
	// Kernel, Stride, Padding are the spatial hyper-parameters; zero for
	// layer kinds that have none (FC, ReLU, ...).
	Kernel  int `json:"kernel,omitempty"`
	Stride  int `json:"stride,omitempty"`
	Padding int `json:"padding,omitempty"`
	// In and Out are channel counts for spatial layers and feature counts
	// for FC layers. In is redundant with the previous layer's Out and is
	// kept consistent by Model.Normalize.
	In  int `json:"in"`
	Out int `json:"out"`
	// Squeeze is the squeeze-layer width of a Fire module (C3); zero
	// otherwise.
	Squeeze int `json:"squeeze,omitempty"`
	// SkipFrom is, for an Add layer, the index of the layer whose output is
	// added to the current activation (the start of the skip connection);
	// -1 when unused. This is the Eq. 1 extension the paper mentions for
	// ResNet.
	SkipFrom int `json:"skipFrom,omitempty"`
	// Sparsity is the fraction of weights that are exactly zero (KSVD/F2);
	// effective MACCs scale by (1 - Sparsity).
	Sparsity float64 `json:"sparsity,omitempty"`
	// Bits is the weight/activation bit width when quantised (the Q1
	// extension technique); zero means full-precision float32.
	Bits int `json:"bits,omitempty"`
	// Tag records the provenance of a transformed layer (e.g. "C1", "F1")
	// so that downstream consumers (accuracy oracle, reports) can tell
	// which compression produced it. Empty for base-model layers.
	Tag string `json:"tag,omitempty"`
}

// NewConv returns a standard convolution layer.
func NewConv(in, out, kernel, stride, padding int) Layer {
	return Layer{Type: Conv, In: in, Out: out, Kernel: kernel, Stride: stride, Padding: padding, SkipFrom: -1}
}

// NewDepthwiseConv returns a depth-wise convolution (one filter per channel).
func NewDepthwiseConv(channels, kernel, stride, padding int) Layer {
	return Layer{Type: DepthwiseConv, In: channels, Out: channels, Kernel: kernel, Stride: stride, Padding: padding, SkipFrom: -1}
}

// NewFC returns a fully-connected layer.
func NewFC(in, out int) Layer {
	return Layer{Type: FC, In: in, Out: out, SkipFrom: -1}
}

// NewMaxPool returns a max-pooling layer.
func NewMaxPool(kernel, stride int) Layer {
	return Layer{Type: MaxPool, Kernel: kernel, Stride: stride, SkipFrom: -1}
}

// NewReLU returns a ReLU activation layer.
func NewReLU() Layer { return Layer{Type: ReLU, SkipFrom: -1} }

// NewBatchNorm returns a batch-normalisation layer.
func NewBatchNorm() Layer { return Layer{Type: BatchNorm, SkipFrom: -1} }

// NewDropout returns a dropout layer (inference no-op).
func NewDropout() Layer { return Layer{Type: Dropout, SkipFrom: -1} }

// NewFlatten returns a flatten layer bridging spatial and FC stages.
func NewFlatten() Layer { return Layer{Type: Flatten, SkipFrom: -1} }

// NewGlobalAvgPool returns a global-average-pooling layer.
func NewGlobalAvgPool() Layer { return Layer{Type: GlobalAvgPool, SkipFrom: -1} }

// NewFire returns a SqueezeNet Fire module: a 1×1 squeeze to `squeeze`
// channels followed by parallel 1×1 and 3×3 expands concatenated to `out`
// channels.
func NewFire(in, squeeze, out int) Layer {
	return Layer{Type: Fire, In: in, Out: out, Squeeze: squeeze, Kernel: 3, Stride: 1, Padding: 1, SkipFrom: -1}
}

// NewAdd returns a residual-add layer joining the activation with the output
// of layer skipFrom.
func NewAdd(skipFrom int) Layer { return Layer{Type: Add, SkipFrom: skipFrom} }

// String renders the layer as the paper's hyper-parameter string
// "type,kernel,stride,padding,out" — the exact state encoding of Eq. 1.
func (l Layer) String() string { return string(l.appendTo(nil)) }

// appendTo appends the String form to b.
func (l Layer) appendTo(b []byte) []byte {
	b = append(b, l.Type.String()...)
	for _, v := range [...]int{l.Kernel, l.Stride, l.Padding, l.Out} {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	if l.Sparsity > 0 {
		b = append(b, ",sp="...)
		b = strconv.AppendFloat(b, l.Sparsity, 'g', 3, 64)
	}
	if l.Bits > 0 {
		b = append(b, ",q"...)
		b = strconv.AppendInt(b, int64(l.Bits), 10)
	}
	if l.Tag != "" {
		b = append(b, ',')
		b = append(b, l.Tag...)
	}
	return b
}

// IsSpatial reports whether the layer operates on C×H×W activations.
func (l Layer) IsSpatial() bool {
	switch l.Type {
	case Conv, DepthwiseConv, MaxPool, AvgPool, GlobalAvgPool, Fire, Add:
		return true
	case BatchNorm, ReLU, Dropout:
		return true // shape-preserving; spatial if input is spatial
	default:
		return false
	}
}

// HasWeights reports whether the layer carries trainable parameters.
func (l Layer) HasWeights() bool {
	switch l.Type {
	case Conv, DepthwiseConv, FC, Fire, BatchNorm:
		return true
	default:
		return false
	}
}
