package nn

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
)

// BytesPerElement is the wire/storage width of one activation or weight
// element. Features are shipped to the cloud as float32.
const BytesPerElement = 4

// Shape is the extent of an activation: channels × height × width. Flattened
// activations are represented as C×1×1.
type Shape struct {
	C, H, W int
}

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int { return s.C * s.H * s.W }

// Bytes returns the wire size of an activation with this shape.
func (s Shape) Bytes() int64 { return int64(s.Elems()) * BytesPerElement }

// String renders the shape as CxHxW.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Dims records the inferred input and output shapes of one layer.
type Dims struct {
	In, Out Shape
}

// Model is a DNN expressed as a layer sequence plus its input specification.
type Model struct {
	Name    string  `json:"name"`
	Input   Shape   `json:"input"`
	Classes int     `json:"classes"`
	Layers  []Layer `json:"layers"`
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := *m
	c.Layers = make([]Layer, len(m.Layers))
	copy(c.Layers, m.Layers)
	return &c
}

// InferDims propagates shapes through the network, returning per-layer input
// and output shapes. It returns an error if any layer is inconsistent with
// its input (wrong channel count, empty spatial output, bad skip target).
func (m *Model) InferDims() ([]Dims, error) {
	dims := make([]Dims, len(m.Layers))
	cur := m.Input
	for i, l := range m.Layers {
		dims[i].In = cur
		out, err := outputShape(l, cur, dims, i)
		if err != nil {
			return nil, fmt.Errorf("nn: model %q layer %d (%s): %w", m.Name, i, l.Type, err)
		}
		dims[i].Out = out
		cur = out
	}
	return dims, nil
}

func outputShape(l Layer, in Shape, dims []Dims, idx int) (Shape, error) {
	switch l.Type {
	case Conv:
		if l.In != in.C {
			return Shape{}, fmt.Errorf("conv expects %d input channels, activation has %d", l.In, in.C)
		}
		h := (in.H+2*l.Padding-l.Kernel)/l.Stride + 1
		w := (in.W+2*l.Padding-l.Kernel)/l.Stride + 1
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("conv output %dx%d is empty (input %s)", h, w, in)
		}
		return Shape{C: l.Out, H: h, W: w}, nil
	case DepthwiseConv:
		if l.In != in.C || l.Out != in.C {
			return Shape{}, fmt.Errorf("depthwise conv channels %d/%d mismatch activation %d", l.In, l.Out, in.C)
		}
		h := (in.H+2*l.Padding-l.Kernel)/l.Stride + 1
		w := (in.W+2*l.Padding-l.Kernel)/l.Stride + 1
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("depthwise conv output %dx%d is empty", h, w)
		}
		return Shape{C: l.Out, H: h, W: w}, nil
	case Fire:
		if l.In != in.C {
			return Shape{}, fmt.Errorf("fire expects %d input channels, activation has %d", l.In, in.C)
		}
		if l.Squeeze <= 0 {
			return Shape{}, fmt.Errorf("fire squeeze width must be positive, got %d", l.Squeeze)
		}
		// Fire preserves spatial extent (1×1 squeeze, padded 3×3 expand).
		return Shape{C: l.Out, H: in.H, W: in.W}, nil
	case MaxPool, AvgPool:
		h := (in.H+2*l.Padding-l.Kernel)/l.Stride + 1
		w := (in.W+2*l.Padding-l.Kernel)/l.Stride + 1
		if h <= 0 || w <= 0 {
			return Shape{}, fmt.Errorf("pool output %dx%d is empty (input %s)", h, w, in)
		}
		return Shape{C: in.C, H: h, W: w}, nil
	case GlobalAvgPool:
		return Shape{C: in.C, H: 1, W: 1}, nil
	case ReLU, BatchNorm, Dropout:
		return in, nil
	case Flatten:
		return Shape{C: in.Elems(), H: 1, W: 1}, nil
	case FC:
		if in.H != 1 || in.W != 1 {
			return Shape{}, fmt.Errorf("fc requires flattened input, got %s", in)
		}
		if l.In != in.C {
			return Shape{}, fmt.Errorf("fc expects %d input features, activation has %d", l.In, in.C)
		}
		return Shape{C: l.Out, H: 1, W: 1}, nil
	case Add:
		if l.SkipFrom < 0 || l.SkipFrom >= idx {
			return Shape{}, fmt.Errorf("add skip source %d out of range [0,%d)", l.SkipFrom, idx)
		}
		src := dims[l.SkipFrom].Out
		if l.Out > 0 {
			// Projection shortcut: 1×1 stride-s conv on the skip path.
			if l.In != src.C {
				return Shape{}, fmt.Errorf("add projection expects %d skip channels, got %d", l.In, src.C)
			}
			src = Shape{C: l.Out, H: (src.H-1)/l.Stride + 1, W: (src.W-1)/l.Stride + 1}
		}
		if src != in {
			return Shape{}, fmt.Errorf("add operands mismatch: skip %s vs activation %s", src, in)
		}
		return in, nil
	default:
		return Shape{}, fmt.Errorf("unknown layer type %d", l.Type)
	}
}

// Validate checks structural consistency and that the final output matches
// the class count.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model %q has no layers", m.Name)
	}
	dims, err := m.InferDims()
	if err != nil {
		return err
	}
	last := dims[len(dims)-1].Out
	if m.Classes > 0 && (last.C != m.Classes || last.H != 1 || last.W != 1) {
		return fmt.Errorf("nn: model %q final output %s, want %dx1x1", m.Name, last, m.Classes)
	}
	return nil
}

// Normalize rewrites the redundant In fields (and DepthwiseConv Out fields)
// so that every layer is consistent with the activation flowing into it.
// Compression transforms call it after changing channel counts so the
// downstream layers track the new widths. The final FC's Out is never
// touched. It checks everything Validate does, so a model it accepts needs
// no Validate.
func (m *Model) Normalize() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model %q has no layers", m.Name)
	}
	cur := m.Input
	dims := make([]Dims, len(m.Layers))
	for i := range m.Layers {
		l := &m.Layers[i]
		dims[i].In = cur
		switch l.Type {
		case Conv, Fire:
			l.In = cur.C
		case DepthwiseConv:
			l.In = cur.C
			l.Out = cur.C
		case FC:
			if cur.H != 1 || cur.W != 1 {
				return fmt.Errorf("nn: model %q layer %d: fc after unflattened activation %s", m.Name, i, cur)
			}
			l.In = cur.C
		}
		out, err := outputShape(*l, cur, dims, i)
		if err != nil {
			return fmt.Errorf("nn: model %q layer %d (%s): %w", m.Name, i, l.Type, err)
		}
		dims[i].Out = out
		cur = out
	}
	if m.Classes > 0 && (cur.C != m.Classes || cur.H != 1 || cur.W != 1) {
		return fmt.Errorf("nn: model %q final output %s, want %dx1x1", m.Name, cur, m.Classes)
	}
	return nil
}

// LayerCost is one layer's row of the model's cost table: everything the
// paper's cost model (Eqs. 4–6) and the storage and energy accounting read
// about that layer.
type LayerCost struct {
	Dims
	// MACCs is the multiply-accumulate count following Eqs. 4–5: conv and FC
	// layers dominate; batch-norm, pooling and dropout count as zero ("cost
	// little time ... and can be ignored"). KSVD sparsity scales it by
	// (1 − Sparsity).
	MACCs int64
	// Params is the trainable parameter count (weights + biases; batch-norm
	// counts scale and shift).
	Params int64
	// OutBytes is the wire size of the layer's output: the bytes that cross
	// the network when the model is cut right after this layer.
	OutBytes int64
}

// Costs derives the model's per-layer cost table in one shape pass. It is
// the one place per-layer cost facts come from: MACCs, Params, ParamBytes,
// BlockMACCs, Summary, the latency and energy estimators, surgery and the
// tree search all read these rows. A caller that prices one model more than
// once holds its rows rather than asking again.
func (m *Model) Costs() ([]LayerCost, error) {
	dims, err := m.InferDims()
	if err != nil {
		return nil, err
	}
	rows := make([]LayerCost, len(m.Layers))
	for i, l := range m.Layers {
		d := dims[i]
		rows[i] = LayerCost{Dims: d, MACCs: layerMACCs(l, d), Params: layerParams(l, d), OutBytes: d.Out.Bytes()}
	}
	return rows, nil
}

func layerMACCs(l Layer, d Dims) int64 {
	switch l.Type {
	case Conv:
		// Eq. 4: K·K·Cin·Cout·Hout·Wout.
		raw := int64(l.Kernel) * int64(l.Kernel) * int64(l.In) * int64(l.Out) *
			int64(d.Out.H) * int64(d.Out.W)
		return applySparsity(raw, l.Sparsity)
	case DepthwiseConv:
		// One filter per channel: K·K·C·Hout·Wout.
		return int64(l.Kernel) * int64(l.Kernel) * int64(l.Out) *
			int64(d.Out.H) * int64(d.Out.W)
	case FC:
		// Eq. 5: Cin·Cout.
		return applySparsity(int64(l.In)*int64(l.Out), l.Sparsity)
	case Fire:
		// Squeeze 1×1 (Cin→s) + expand 1×1 (s→e1) + expand 3×3 (s→e3),
		// with e1 + e3 = Out split evenly.
		hw := int64(d.Out.H) * int64(d.Out.W)
		s := int64(l.Squeeze)
		e1 := int64(l.Out / 2)
		e3 := int64(l.Out) - e1
		return hw * (int64(l.In)*s + s*e1 + 9*s*e3)
	case Add:
		if l.Out > 0 {
			// Projection shortcut conv: 1·1·Cin·Cout·Hout·Wout.
			return int64(l.In) * int64(l.Out) * int64(d.Out.H) * int64(d.Out.W)
		}
		return 0
	default:
		return 0
	}
}

func applySparsity(raw int64, sparsity float64) int64 {
	if sparsity <= 0 {
		return raw
	}
	if sparsity >= 1 {
		return 0
	}
	return int64(float64(raw) * (1 - sparsity))
}

// MACCs returns the total multiply-accumulate count of the model.
func (m *Model) MACCs() (int64, error) {
	rows, err := m.Costs()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, r := range rows {
		total += r.MACCs
	}
	return total, nil
}

func layerParams(l Layer, d Dims) int64 {
	switch l.Type {
	case Conv:
		return applySparsity(int64(l.Kernel)*int64(l.Kernel)*int64(l.In)*int64(l.Out), l.Sparsity) + int64(l.Out)
	case DepthwiseConv:
		return int64(l.Kernel)*int64(l.Kernel)*int64(l.Out) + int64(l.Out)
	case FC:
		return applySparsity(int64(l.In)*int64(l.Out), l.Sparsity) + int64(l.Out)
	case Fire:
		s := int64(l.Squeeze)
		e1 := int64(l.Out / 2)
		e3 := int64(l.Out) - e1
		return int64(l.In)*s + s + s*e1 + e1 + 9*s*e3 + e3
	case BatchNorm:
		return 2 * int64(d.In.C)
	case Add:
		if l.Out > 0 {
			return int64(l.In)*int64(l.Out) + int64(l.Out)
		}
		return 0
	default:
		return 0
	}
}

// ParamBytes returns the model's storage footprint in bytes, honouring
// per-layer quantisation bit widths (full precision is 32 bits).
func (m *Model) ParamBytes() (int64, error) {
	rows, err := m.Costs()
	if err != nil {
		return 0, err
	}
	var total int64
	for i, r := range rows {
		total += paramBytes(m.Layers[i], r.Params)
	}
	return total, nil
}

// paramBytes is the storage of a layer's params parameters at its bit width.
func paramBytes(l Layer, params int64) int64 {
	bits := l.Bits
	if bits <= 0 {
		bits = 32
	}
	return params * int64(bits) / 8
}

// Params returns the total trainable parameter count.
func (m *Model) Params() (int64, error) {
	rows, err := m.Costs()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, r := range rows {
		total += r.Params
	}
	return total, nil
}

// Hash returns a stable FNV-1a digest of the architecture (name excluded) —
// the key of the decision engine's memory pool.
func (m *Model) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%dx%dx%d|%d|", m.Input.C, m.Input.H, m.Input.W, m.Classes)
	for i, l := range m.Layers {
		fmt.Fprintf(h, "%d:%s;%d;%d;", i, l.String(), l.In, l.SkipFrom)
	}
	return h.Sum64()
}

// MarshalJSON implements json.Marshaler (the default struct encoding).
func (m *Model) MarshalJSON() ([]byte, error) {
	type alias Model
	return json.Marshal((*alias)(m))
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Model) UnmarshalJSON(data []byte) error {
	type alias Model
	if err := json.Unmarshal(data, (*alias)(m)); err != nil {
		return fmt.Errorf("nn: decode model: %w", err)
	}
	return nil
}
