// Package tensor provides a minimal dense-tensor substrate used to ground the
// compression transforms and the accuracy oracle on real numerical behaviour.
//
// The package is intentionally small: float64 storage, explicit shapes,
// matrix multiply, 2-D convolution via im2col, pooling, activations, and a
// truncated SVD. It carries no autograd graph; layer modules in internal/nn
// implement explicit Forward/Backward pairs on top of these primitives.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"cadmc/internal/parallel"
)

// Tensor is a dense, row-major float64 tensor.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data holds the elements in row-major order; len(Data) == product(Shape).
	Data []float64
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative; a zero-dimension tensor is valid
// and holds no elements.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// A negative dimension is a programming error on par with a
			// negative make() length, not a recoverable condition.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape)) //cadmc:allow panicfree
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied). It returns an error if the element count mismatches.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: shape %v needs %d elements, got %d", shape, n, len(data))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}, nil
}

// Randn fills a new tensor with N(0, std²) samples drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape covering the same data.
// It returns an error if the element counts differ.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.Shape, len(t.Data), shape, n)
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: t.Data}, nil
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// offset panics on rank or range violations — a bad multi-index is the
// tensor-level analogue of an out-of-range slice index and carries the same
// blame: the caller's code, not its inputs.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape))) //cadmc:allow panicfree
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape)) //cadmc:allow panicfree
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Zero sets every element to zero in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace adds other element-wise into t. Shapes must have equal lengths.
func (t *Tensor) AddInPlace(other *Tensor) error {
	if len(t.Data) != len(other.Data) {
		return fmt.Errorf("tensor: add length mismatch %d vs %d", len(t.Data), len(other.Data))
	}
	for i, v := range other.Data {
		t.Data[i] += v
	}
	return nil
}

// Scale multiplies every element by k in place.
func (t *Tensor) Scale(k float64) {
	for i := range t.Data {
		t.Data[i] *= k
	}
}

// Dot returns the inner product of the flattened tensors.
func Dot(a, b *Tensor) (float64, error) {
	if len(a.Data) != len(b.Data) {
		return 0, fmt.Errorf("tensor: dot length mismatch %d vs %d", len(a.Data), len(b.Data))
	}
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s, nil
}

// Norm returns the Frobenius (L2) norm of t.
func (t *Tensor) Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n). Output row
// tiles are partitioned across the parallel worker pool; each element is one
// serial sum over ascending p from +0 regardless of worker count, so results
// are bit-exact at any GOMAXPROCS.
func MatMul(a, b *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return nil, fmt.Errorf("tensor: matmul needs rank-2 operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: matmul inner dims %d vs %d", k, k2)
	}
	c := New(m, n)
	matmulInto(a.Data, b.Data, c.Data, m, k, n)
	return c, nil
}

// MatMulInto computes C = A·B into the preallocated dst (m×n), overwriting
// its contents. It is the allocation-free variant behind scratch-buffer
// reuse in the backward pass; results are identical to MatMul.
func MatMulInto(a, b, dst *Tensor) error {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		return fmt.Errorf("tensor: matmul needs rank-2 operands, got %v and %v", a.Shape, b.Shape)
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		return fmt.Errorf("tensor: matmul inner dims %d vs %d", k, k2)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		return fmt.Errorf("tensor: matmul dst %v, want [%d %d]", dst.Shape, m, n)
	}
	matmulInto(a.Data, b.Data, dst.Data, m, k, n)
	return nil
}

// matmulInto runs C = A·B through the GEMM (gemm.go): B, a k×n row-major
// matrix, is exactly a batch-of-one stack of k planes of 1×n, and the product
// its 1×1 convolution with A.
func matmulInto(a, b, c []float64, m, k, n int) {
	convOnce(c, b, a, ConvShape{InC: k, InH: 1, InW: n, OutC: m, Kernel: 1, Stride: 1}, Epilogue{})
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if len(a.Shape) != 2 {
		return nil, fmt.Errorf("tensor: transpose needs rank-2 operand, got %v", a.Shape)
	}
	t := New(a.Shape[1], a.Shape[0])
	transposeInto(a, t)
	return t, nil
}

// TransposeInto writes the transpose of a into the preallocated dst (n×m).
func TransposeInto(a, dst *Tensor) error {
	if len(a.Shape) != 2 {
		return fmt.Errorf("tensor: transpose needs rank-2 operand, got %v", a.Shape)
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != a.Shape[1] || dst.Shape[1] != a.Shape[0] {
		return fmt.Errorf("tensor: transpose dst %v, want [%d %d]", dst.Shape, a.Shape[1], a.Shape[0])
	}
	transposeInto(a, dst)
	return nil
}

// transposeInto partitions over source rows; a chunk writes column i of dst
// for each of its rows i, so chunks touch disjoint elements.
func transposeInto(a, dst *Tensor) {
	m, n := a.Shape[0], a.Shape[1]
	parallel.For(m, parallel.Grain(m, n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*n : (i+1)*n]
			for j, v := range row {
				dst.Data[j*m+i] = v
			}
		}
	})
}

// Scratch returns a zero-filled tensor whose storage is drawn from the
// scratch-buffer arena (internal/parallel). It behaves exactly like New;
// the only difference is where the memory comes from. Callers that finish
// with a scratch tensor hand its storage back via Release — the backward
// pass's intermediates (unfolded columns, transposes, gradient products) go
// through this pair so a steady training loop stops hitting the allocator.
func Scratch(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Same contract as New: a negative dimension is a programming
			// error, not a recoverable condition.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape)) //cadmc:allow panicfree
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: parallel.GetF64(n)}
}

// Release returns t's storage to the scratch arena and nils t.Data so a
// use-after-release fails loudly. Only tensors from Scratch should be
// released, and never while any view (Reshape, FromSlice) of the same
// storage is still live.
func Release(t *Tensor) {
	if t == nil || t.Data == nil {
		return
	}
	parallel.PutF64(t.Data)
	t.Data = nil
}

// String renders small tensors for debugging; large tensors are summarised.
func (t *Tensor) String() string {
	var b strings.Builder
	b.WriteString("Tensor")
	b.WriteString(fmt.Sprint(t.Shape))
	if len(t.Data) <= 16 {
		b.WriteByte('[')
		for i, v := range t.Data {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', 4, 64))
		}
		b.WriteByte(']')
	} else {
		fmt.Fprintf(&b, "{%d elems, norm %.4g}", len(t.Data), t.Norm())
	}
	return b.String()
}
