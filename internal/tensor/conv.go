package tensor

import (
	"fmt"

	"cadmc/internal/parallel"
)

// ConvShape describes a 2-D convolution configuration.
type ConvShape struct {
	InC, InH, InW   int
	OutC, Kernel    int
	Stride, Padding int
}

// OutHW returns the output spatial dimensions for the configuration.
func (c ConvShape) OutHW() (int, int) {
	outH := (c.InH+2*c.Padding-c.Kernel)/c.Stride + 1
	outW := (c.InW+2*c.Padding-c.Kernel)/c.Stride + 1
	return outH, outW
}

// checkInput validates input against the configuration and returns the
// (non-empty) output spatial dimensions.
func (c ConvShape) checkInput(input *Tensor) (int, int, error) {
	if len(input.Shape) != 3 {
		return 0, 0, fmt.Errorf("tensor: im2col needs rank-3 input, got %v", input.Shape)
	}
	if input.Shape[0] != c.InC || input.Shape[1] != c.InH || input.Shape[2] != c.InW {
		return 0, 0, fmt.Errorf("tensor: im2col input %v mismatches conv shape %dx%dx%d",
			input.Shape, c.InC, c.InH, c.InW)
	}
	outH, outW := c.OutHW()
	if outH <= 0 || outW <= 0 {
		return 0, 0, fmt.Errorf("tensor: conv output %dx%d is empty (in %dx%d k=%d s=%d p=%d)",
			outH, outW, c.InH, c.InW, c.Kernel, c.Stride, c.Padding)
	}
	return outH, outW, nil
}

// Im2Col unfolds input (C×H×W) into a matrix of shape
// (C·K·K) × (outH·outW) so convolution becomes a matrix multiply.
func Im2Col(input *Tensor, cs ConvShape) (*Tensor, error) {
	outH, outW, err := cs.checkInput(input)
	if err != nil {
		return nil, err
	}
	cols := New(cs.InC*cs.Kernel*cs.Kernel, outH*outW)
	im2colInto(input, cs, cols.Data, outH, outW)
	return cols, nil
}

// Im2ColInto unfolds input into the preallocated dst, which must have shape
// (C·K·K) × (outH·outW). Every element of dst is written (padding positions
// get explicit zeros), so dst may be a recycled scratch buffer.
func Im2ColInto(input *Tensor, cs ConvShape, dst *Tensor) error {
	outH, outW, err := cs.checkInput(input)
	if err != nil {
		return err
	}
	if len(dst.Shape) != 2 || dst.Shape[0] != cs.InC*cs.Kernel*cs.Kernel || dst.Shape[1] != outH*outW {
		return fmt.Errorf("tensor: im2col dst %v, want [%d %d]",
			dst.Shape, cs.InC*cs.Kernel*cs.Kernel, outH*outW)
	}
	im2colInto(input, cs, dst.Data, outH, outW)
	return nil
}

// im2colInto partitions the (channel, ky, kx) output rows across the worker
// pool; each row writes a disjoint dst segment, so rows are embarrassingly
// parallel and the unfold is a pure gather — deterministic by construction.
func im2colInto(input *Tensor, cs ConvShape, dst []float64, outH, outW int) {
	k2 := cs.Kernel * cs.Kernel
	rows := cs.InC * k2
	hw := outH * outW
	parallel.For(rows, parallel.Grain(rows, hw), func(lo, hi int) {
		for row := lo; row < hi; row++ {
			ch := row / k2
			ky := (row % k2) / cs.Kernel
			kx := row % cs.Kernel
			chBase := ch * cs.InH * cs.InW
			seg := dst[row*hw : (row+1)*hw]
			i := 0
			for oy := 0; oy < outH; oy++ {
				iy := oy*cs.Stride + ky - cs.Padding
				if iy < 0 || iy >= cs.InH {
					for ox := 0; ox < outW; ox++ {
						seg[i] = 0
						i++
					}
					continue
				}
				rowBase := chBase + iy*cs.InW
				for ox := 0; ox < outW; ox++ {
					ix := ox*cs.Stride + kx - cs.Padding
					if ix >= 0 && ix < cs.InW {
						seg[i] = input.Data[rowBase+ix]
					} else {
						seg[i] = 0
					}
					i++
				}
			}
		}
	})
}

// Col2Im folds a (C·K·K) × (outH·outW) column matrix back into a C×H×W
// tensor, accumulating overlaps. It is the adjoint of Im2Col and is used for
// the convolution input gradient. Work is partitioned per channel — every
// accumulation target lives inside one channel's image plane, and within a
// channel the (ky, kx) rows fold in the serial order, so the summation
// order per element is independent of the worker count.
func Col2Im(cols *Tensor, cs ConvShape) (*Tensor, error) {
	outH, outW := cs.OutHW()
	want := []int{cs.InC * cs.Kernel * cs.Kernel, outH * outW}
	if len(cols.Shape) != 2 || cols.Shape[0] != want[0] || cols.Shape[1] != want[1] {
		return nil, fmt.Errorf("tensor: col2im got %v, want %v", cols.Shape, want)
	}
	img := New(cs.InC, cs.InH, cs.InW)
	hw := outH * outW
	k2 := cs.Kernel * cs.Kernel
	parallel.For(cs.InC, parallel.Grain(cs.InC, k2*hw), func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			chBase := ch * cs.InH * cs.InW
			for ky := 0; ky < cs.Kernel; ky++ {
				for kx := 0; kx < cs.Kernel; kx++ {
					row := ch*k2 + ky*cs.Kernel + kx
					src := cols.Data[row*hw : (row+1)*hw]
					i := 0
					for oy := 0; oy < outH; oy++ {
						iy := oy*cs.Stride + ky - cs.Padding
						if iy < 0 || iy >= cs.InH {
							i += outW
							continue
						}
						rowBase := chBase + iy*cs.InW
						for ox := 0; ox < outW; ox++ {
							ix := ox*cs.Stride + kx - cs.Padding
							if ix >= 0 && ix < cs.InW {
								img.Data[rowBase+ix] += src[i]
							}
							i++
						}
					}
				}
			}
		}
	})
	return img, nil
}

// Conv2D applies weights (OutC × InC·K·K) and bias (OutC) to input (C×H×W),
// returning an OutC×outH×outW tensor. Padding is zero padding. It is the
// batch-of-one call of Workspace.Conv2D.
func Conv2D(input, weights, bias *Tensor, cs ConvShape) (*Tensor, error) {
	outH, outW, err := cs.checkInput(input)
	if err != nil {
		return nil, err
	}
	if len(weights.Shape) != 2 || weights.Shape[0] != cs.OutC || weights.Shape[1] != cs.InC*cs.Kernel*cs.Kernel {
		return nil, fmt.Errorf("tensor: conv weights %v, want [%d %d]",
			weights.Shape, cs.OutC, cs.InC*cs.Kernel*cs.Kernel)
	}
	var ep Epilogue
	if bias != nil {
		if bias.Len() != cs.OutC {
			return nil, fmt.Errorf("tensor: conv bias len %d, want %d", bias.Len(), cs.OutC)
		}
		ep.Bias = bias.Data
	}
	out := New(cs.OutC, outH, outW)
	convOnce(out.Data, input.Data, weights.Data, cs, ep)
	return out, nil
}

// MaxPool2D applies k×k max pooling with the given stride over a C×H×W input.
// It returns the pooled output and an argmax slice of flat input offsets
// used by MaxPool2DBackward. Channels pool independently on the worker pool.
func MaxPool2D(input *Tensor, k, stride int) (*Tensor, []int, error) {
	if len(input.Shape) != 3 {
		return nil, nil, fmt.Errorf("tensor: maxpool needs rank-3 input, got %v", input.Shape)
	}
	c, h, w := input.Shape[0], input.Shape[1], input.Shape[2]
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		return nil, nil, fmt.Errorf("tensor: maxpool output empty for %v k=%d s=%d", input.Shape, k, stride)
	}
	out := New(c, outH, outW)
	arg := make([]int, c*outH*outW)
	parallel.For(c, parallel.Grain(c, outH*outW*k*k), func(clo, chi int) {
		maxPoolPlanes(out.Data, arg, input.Data, clo, chi, h, w, k, stride)
	})
	return out, arg, nil
}

// MaxPool2DInto pools `planes` consecutive h×w planes of src into dst — a
// batch of C×H×W activations laid end to end is batch·C of them — keeping no
// argmax. Shapes are the caller's contract.
func MaxPool2DInto(dst, src []float64, planes, h, w, k, stride int) {
	maxPoolPlanes(dst, nil, src, 0, planes, h, w, k, stride)
}

// maxPoolPlanes pools planes [lo, hi): the first strictly greatest element of
// each window wins. arg, when non-nil, receives its flat offset in src.
func maxPoolPlanes(dst []float64, arg []int, src []float64, lo, hi, h, w, k, stride int) {
	outH := (h-k)/stride + 1
	outW := (w-k)/stride + 1
	for pl := lo; pl < hi; pl++ {
		base := pl * h * w
		outBase := pl * outH * outW
		for oy := 0; oy < outH; oy++ {
			rowTop := base + oy*stride*w
			o := outBase + oy*outW
			for ox := 0; ox < outW; ox++ {
				start := rowTop + ox*stride
				best := src[start]
				bestIdx := start
				for ky := 0; ky < k; ky++ {
					row := start + ky*w
					for kx := 0; kx < k; kx++ {
						if v := src[row+kx]; v > best {
							best, bestIdx = v, row+kx
						}
					}
				}
				dst[o+ox] = best
				if arg != nil {
					arg[o+ox] = bestIdx
				}
			}
		}
	}
}

// MaxPool2DBackward scatters the output gradient back through the argmax map.
func MaxPool2DBackward(gradOut *Tensor, arg []int, inShape []int) (*Tensor, error) {
	if gradOut.Len() != len(arg) {
		return nil, fmt.Errorf("tensor: maxpool backward grad len %d vs arg len %d", gradOut.Len(), len(arg))
	}
	gradIn := New(inShape...)
	for i, g := range gradOut.Data {
		gradIn.Data[arg[i]] += g
	}
	return gradIn, nil
}
