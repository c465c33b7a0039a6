package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"cadmc/internal/parallel"
	"cadmc/internal/tensor"
)

// Net is a weight-carrying, executable instantiation of a Model. Every layer
// kind the substrate can describe is executable — Conv, DepthwiseConv, FC,
// ReLU, MaxPool, GlobalAvgPool, Flatten, Dropout (an inference no-op),
// BatchNorm (as a frozen per-channel affine), residual Add (with optional
// 1×1 projection), and SqueezeNet Fire — with explicit forward and backward
// passes and SGD. This is what grounds the accuracy oracle and powers the
// serving substrate: compressed structures (C1/C2/C3 outputs) and residual
// networks really run and really train.
//
// Model is frozen once a Net has run: forwards execute plans compiled from it
// on first use. Weights may change at any time — plans hold none.
type Net struct {
	Model   *Model
	Weights []*tensor.Tensor // nil for weight-free layers
	Biases  []*tensor.Tensor
	// FireAt holds the composite parameters of Fire layers, keyed by layer
	// index.
	FireAt map[int]*FireParams

	planMu sync.Mutex
	plans  map[planKey]*plan
	// own is the Workspace the copy-out forwards and a nil workspace run
	// on. ownMu is only ever taken with TryLock — a forward that finds it
	// held, by another goroutine or by its own caller inside use, runs on a
	// throwaway workspace — so holding it across use blocks nobody.
	ownMu sync.Mutex
	own   Workspace
}

// FireParams holds a Fire module's three convolutions: a 1×1 squeeze and the
// parallel 1×1 / 3×3 expands whose outputs concatenate.
type FireParams struct {
	SqueezeW, SqueezeB *tensor.Tensor // [s, Cin], [s]
	E1W, E1B           *tensor.Tensor // [e1, s], [e1]
	E3W, E3B           *tensor.Tensor // [e3, 9s], [e3]
}

func newFireParams(l Layer, rng *rand.Rand) *FireParams {
	s := l.Squeeze
	e1 := l.Out / 2
	e3 := l.Out - e1
	return &FireParams{
		SqueezeW: tensor.Randn(rng, math.Sqrt(2/float64(l.In)), s, l.In),
		SqueezeB: tensor.New(s),
		E1W:      tensor.Randn(rng, math.Sqrt(2/float64(s)), e1, s),
		E1B:      tensor.New(e1),
		E3W:      tensor.Randn(rng, math.Sqrt(2/float64(9*s)), e3, 9*s),
		E3B:      tensor.New(e3),
	}
}

func zeroFireParams(p *FireParams) *FireParams {
	return &FireParams{
		SqueezeW: tensor.New(p.SqueezeW.Shape...),
		SqueezeB: tensor.New(p.SqueezeB.Shape...),
		E1W:      tensor.New(p.E1W.Shape...),
		E1B:      tensor.New(p.E1B.Shape...),
		E3W:      tensor.New(p.E3W.Shape...),
		E3B:      tensor.New(p.E3B.Shape...),
	}
}

// NewNet allocates a network with He-initialised weights. BatchNorm starts
// as the identity affine; Add projections are He-initialised 1×1 convs.
func NewNet(m *Model, rng *rand.Rand) (*Net, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("nn: new net: %w", err)
	}
	dims, err := m.InferDims()
	if err != nil {
		return nil, err
	}
	n := &Net{
		Model:   m,
		Weights: make([]*tensor.Tensor, len(m.Layers)),
		Biases:  make([]*tensor.Tensor, len(m.Layers)),
		FireAt:  make(map[int]*FireParams),
	}
	for i, l := range m.Layers {
		switch l.Type {
		case Conv:
			fanIn := l.Kernel * l.Kernel * l.In
			std := math.Sqrt(2 / float64(fanIn))
			n.Weights[i] = tensor.Randn(rng, std, l.Out, fanIn)
			n.Biases[i] = tensor.New(l.Out)
		case DepthwiseConv:
			fanIn := l.Kernel * l.Kernel
			std := math.Sqrt(2 / float64(fanIn))
			n.Weights[i] = tensor.Randn(rng, std, l.Out, fanIn)
			n.Biases[i] = tensor.New(l.Out)
		case FC:
			std := math.Sqrt(2 / float64(l.In))
			n.Weights[i] = tensor.Randn(rng, std, l.Out, l.In)
			n.Biases[i] = tensor.New(l.Out)
		case BatchNorm:
			c := dims[i].In.C
			gamma := tensor.New(c)
			for j := range gamma.Data {
				gamma.Data[j] = 1
			}
			n.Weights[i] = gamma
			n.Biases[i] = tensor.New(c)
		case Add:
			if l.Out > 0 { // projection shortcut
				std := math.Sqrt(2 / float64(l.In))
				n.Weights[i] = tensor.Randn(rng, std, l.Out, l.In)
				n.Biases[i] = tensor.New(l.Out)
			}
		case Fire:
			n.FireAt[i] = newFireParams(l, rng)
		case ReLU, MaxPool, GlobalAvgPool, Flatten, Dropout:
			// No parameters.
		default:
			return nil, fmt.Errorf("nn: layer type %s not executable", l.Type)
		}
	}
	return n, nil
}

// Forward runs one C×H×W input through the network, returning the logits.
func (n *Net) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return n.ForwardRange(x, 0, len(n.Model.Layers))
}

// ForwardFrom runs layers [from, end) on an activation produced by layer
// from-1 — the cloud half of a partitioned inference. ForwardFrom(x, 0) is
// equivalent to Forward(x). Residual adds whose skip source lies before
// `from` cannot execute (the activation never crossed the network); legal
// cut points never produce that situation. A cut exactly at the skip source
// is legal: the transferred tensor serves both paths.
func (n *Net) ForwardFrom(x *tensor.Tensor, from int) (*tensor.Tensor, error) {
	return n.ForwardRange(x, from, len(n.Model.Layers))
}

// ForwardRange runs layers [from, to), returning the resulting activation —
// the edge half of a partitioned inference when to < len(layers).
func (n *Net) ForwardRange(x *tensor.Tensor, from, to int) (*tensor.Tensor, error) {
	outs, err := n.ForwardRangeBatch([]*tensor.Tensor{x}, from, to)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// ForwardBatch runs a batch of inputs through the whole network in one
// batched pass — the serving gateway's amortised entry point.
func (n *Net) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return n.ForwardRangeBatch(xs, 0, len(n.Model.Layers))
}

// ForwardRangeBatch runs layers [from, to) over a batch of activations and
// returns one fresh output per input, bit-identical to running ForwardRange
// on each input alone. It is ForwardRangeBatchView on the Net's own
// workspace with the views copied out into the only allocations of the call.
func (n *Net) ForwardRangeBatch(xs []*tensor.Tensor, from, to int) ([]*tensor.Tensor, error) {
	var outs []*tensor.Tensor
	err := n.ForwardRangeBatchView(nil, xs, from, to, func(views []*tensor.Tensor) error {
		per := len(views[0].Data)
		data := make([]float64, len(views)*per)
		for b, v := range views {
			lo, hi := b*per, (b+1)*per
			copy(data[lo:hi], v.Data)
			v.Data = data[lo:hi:hi]
		}
		outs = views
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// ForwardRangeBatchView runs layers [from, to) over a batch of activations
// on ws and calls use with one view per input into its slab. It is the one
// inference path — every other entry point is a call of it: the range's
// compiled plan (plan.go) executes in ws's slab, the batch folded into each
// GEMM's columns so a layer's weights stream once per batch, and nothing but
// the views is allocated once ws is warm. A nil ws runs on the Net's own
// workspace, or on a throwaway one when that is taken. The views' data is
// valid until the next forward on ws: use must not retain it, and a forward
// use starts must run on another workspace (the tensor headers are use's to
// keep or re-point). Every input must have exactly the shape the model infers
// at `from`; the inputs are read, never written. use's error is returned as
// is.
func (n *Net) ForwardRangeBatchView(ws *Workspace, xs []*tensor.Tensor, from, to int, use func(views []*tensor.Tensor) error) error {
	if len(xs) == 0 {
		return fmt.Errorf("nn: batched forward over an empty batch")
	}
	p, err := n.planFor(from, to, false)
	if err != nil {
		return err
	}
	if err := p.checkInputs(xs); err != nil {
		return err
	}
	if ws == nil {
		if n.ownMu.TryLock() {
			defer n.ownMu.Unlock()
			ws = &n.own
		} else {
			ws = new(Workspace)
		}
	}
	res := ws.execute(n, p, xs)
	out := p.out()
	views := make([]*tensor.Tensor, len(xs))
	for b := range views {
		lo, hi := b*out.Elems(), (b+1)*out.Elems()
		views[b] = out.tensorOver(res[lo:hi:hi])
	}
	return use(views)
}

// tensorOver wraps data, s.Elems() floats, as a C×H×W tensor.
func (s Shape) tensorOver(data []float64) *tensor.Tensor {
	return &tensor.Tensor{Shape: []int{s.C, s.H, s.W}, Data: data}
}

// checkInputs is the one shape check of a forward: every input must be the
// C×H×W activation the model infers at the start of the range. A frame off
// the wire declares its own shape, so this is what keeps a hostile one from
// indexing a kernel out of range.
func (p *plan) checkInputs(xs []*tensor.Tensor) error {
	want := p.in()
	for b, x := range xs {
		if x == nil {
			return fmt.Errorf("nn: forward from layer %d: nil input at batch index %d", p.from, b)
		}
		if len(x.Shape) != 3 || x.Shape[0] != want.C || x.Shape[1] != want.H || x.Shape[2] != want.W || len(x.Data) != want.Elems() {
			return fmt.Errorf("nn: forward from layer %d: input at batch index %d has shape %v, want [%d %d %d]",
				p.from, b, x.Shape, want.C, want.H, want.W)
		}
	}
	return nil
}

// forwardCache is what the backward pass reads: views into the slab of a
// forward run with every activation kept.
type forwardCache struct {
	inputs []*tensor.Tensor       // input to each layer (== output of the previous)
	fires  map[int]*tensor.Tensor // squeeze activations (post-ReLU) of Fire layers
	output *tensor.Tensor
}

// forward runs x through the whole net on ws with the executor's liveness
// off — the same steps as inference with nothing overwritten, folded or
// reused — and returns views of ws's slab, valid until its next forward.
func (n *Net) forward(ws *Workspace, p *plan, x *tensor.Tensor) *forwardCache {
	ws.execute(n, p, []*tensor.Tensor{x})
	view := func(slot int, s Shape) *tensor.Tensor {
		return s.tensorOver(ws.slab[p.off[slot] : p.off[slot]+s.Elems()])
	}
	cache := &forwardCache{
		inputs: make([]*tensor.Tensor, len(n.Model.Layers)),
		fires:  make(map[int]*tensor.Tensor),
	}
	for i := range cache.inputs {
		cache.inputs[i] = view(p.val[i], p.shapes[i])
	}
	for _, s := range p.steps {
		if l := n.Model.Layers[s.layer]; l.Type == Fire {
			cache.fires[s.layer] = view(s.aux, Shape{C: l.Squeeze, H: p.shapes[s.layer].H, W: p.shapes[s.layer].W})
		}
	}
	cache.output = view(p.val[len(p.val)-1], p.out())
	return cache
}

// Grads accumulates parameter gradients across a mini-batch. It also owns
// the training loop's memory, so it serves one goroutine at a time.
type Grads struct {
	Weights []*tensor.Tensor
	Biases  []*tensor.Tensor
	FireAt  map[int]*FireParams

	// ws is TrainSample's forward workspace; its GEMM also runs the
	// backward's products. bwd holds the conv backward's five transients.
	ws  Workspace
	bwd []float64
}

// NewGrads allocates zeroed gradient storage matching the network.
func (n *Net) NewGrads() *Grads {
	g := &Grads{
		Weights: make([]*tensor.Tensor, len(n.Weights)),
		Biases:  make([]*tensor.Tensor, len(n.Biases)),
		FireAt:  make(map[int]*FireParams),
	}
	for i, w := range n.Weights {
		if w != nil {
			g.Weights[i] = tensor.New(w.Shape...)
			g.Biases[i] = tensor.New(n.Biases[i].Shape...)
		}
	}
	for i, p := range n.FireAt {
		g.FireAt[i] = zeroFireParams(p)
	}
	return g
}

// backward accumulates gradients for one sample given the gradient of the
// loss with respect to the logits. Gradients are routed per layer output, so
// residual skips accumulate correctly.
func (n *Net) backward(cache *forwardCache, gradOut *tensor.Tensor, g *Grads) error {
	numLayers := len(n.Model.Layers)
	// outGrad[i] = gradient w.r.t. the output of layer i.
	outGrad := make([]*tensor.Tensor, numLayers)
	outGrad[numLayers-1] = gradOut
	accumulate := func(slot int, grad *tensor.Tensor) error {
		if outGrad[slot] == nil {
			outGrad[slot] = grad.Clone()
			return nil
		}
		return outGrad[slot].AddInPlace(grad)
	}
	for i := numLayers - 1; i >= 0; i-- {
		l := n.Model.Layers[i]
		in := cache.inputs[i]
		grad := outGrad[i]
		if grad == nil {
			// No gradient flows to this layer's output (dead sub-path).
			continue
		}
		var gin *tensor.Tensor
		var err error
		switch l.Type {
		case Conv:
			gin, err = n.convBackward(i, l, in, grad, g)
		case DepthwiseConv:
			gin, err = n.depthwiseBackward(i, l, in, grad, g)
		case FC:
			gin, err = fcBackward(n.Weights[i], in, grad, g.Weights[i], g.Biases[i])
		case ReLU:
			gin = grad.Clone()
			for j := range gin.Data {
				if in.Data[j] <= 0 {
					gin.Data[j] = 0
				}
			}
		case MaxPool:
			// The forward keeps no argmax; recompute it from the input.
			var arg []int
			if _, arg, err = tensor.MaxPool2D(in, l.Kernel, l.Stride); err == nil {
				gin, err = tensor.MaxPool2DBackward(grad, arg, in.Shape)
			}
		case GlobalAvgPool:
			c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
			gin = tensor.New(c, h, w)
			hw := float64(h * w)
			for ch := 0; ch < c; ch++ {
				gv := grad.Data[ch] / hw
				seg := gin.Data[ch*h*w : (ch+1)*h*w]
				for j := range seg {
					seg[j] = gv
				}
			}
		case Flatten:
			gin, err = grad.Reshape(in.Shape...)
		case Dropout:
			gin = grad
		case BatchNorm:
			gin, err = n.batchNormBackward(i, in, grad, g)
		case Add:
			var gskip *tensor.Tensor
			gin, gskip, err = n.addBackward(i, l, cache, grad, g)
			if err == nil {
				if aerr := accumulate(l.SkipFrom, gskip); aerr != nil {
					err = aerr
				}
			}
		case Fire:
			gin, err = n.fireBackward(i, l, in, cache.fires[i], grad, g)
		default:
			err = fmt.Errorf("layer type %s not executable", l.Type)
		}
		if err != nil {
			return fmt.Errorf("nn: backward layer %d (%s): %w", i, l.Type, err)
		}
		if i > 0 {
			if err := accumulate(i-1, gin); err != nil {
				return fmt.Errorf("nn: backward layer %d (%s): %w", i, l.Type, err)
			}
		}
	}
	return nil
}

func (n *Net) batchNormBackward(i int, in, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	c := n.Weights[i].Len()
	if len(in.Shape) != 3 || in.Shape[0] != c {
		return nil, fmt.Errorf("batchnorm backward shape mismatch")
	}
	hw := in.Shape[1] * in.Shape[2]
	gin := tensor.New(in.Shape...)
	for ch := 0; ch < c; ch++ {
		gamma := n.Weights[i].Data[ch]
		var gGamma, gBeta float64
		for j := 0; j < hw; j++ {
			idx := ch*hw + j
			gv := gradOut.Data[idx]
			gGamma += gv * in.Data[idx]
			gBeta += gv
			gin.Data[idx] = gv * gamma
		}
		g.Weights[i].Data[ch] += gGamma
		g.Biases[i].Data[ch] += gBeta
	}
	return gin, nil
}

// addBackward returns the gradient for the chain operand and the skip
// operand (through the projection, when present).
func (n *Net) addBackward(i int, l Layer, cache *forwardCache, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, *tensor.Tensor, error) {
	gin := gradOut // identity path
	if l.Out == 0 {
		return gin, gradOut, nil
	}
	// Projection path: backprop the 1×1 strided conv applied to the skip
	// source (the output of layer SkipFrom = the input of layer SkipFrom+1).
	src := cache.inputs[l.SkipFrom+1]
	cs := tensor.ConvShape{
		InC: l.In, InH: src.Shape[1], InW: src.Shape[2],
		OutC: l.Out, Kernel: 1, Stride: l.Stride, Padding: 0,
	}
	gskip, err := g.convBackward(src, n.Weights[i], gradOut, cs, g.Weights[i], g.Biases[i])
	if err != nil {
		return nil, nil, err
	}
	return gin, gskip, nil
}

// fireBackward backpropagates through the concat, the two expands, the
// squeeze ReLU and the squeeze conv.
func (n *Net) fireBackward(i int, l Layer, in, act *tensor.Tensor, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	p := n.FireAt[i]
	gp := g.FireAt[i]
	h, w := in.Shape[1], in.Shape[2]
	s := l.Squeeze
	e1 := l.Out / 2
	e3 := l.Out - e1
	g1, err := tensor.FromSlice(gradOut.Data[:e1*h*w], e1, h, w)
	if err != nil {
		return nil, err
	}
	g3, err := tensor.FromSlice(gradOut.Data[e1*h*w:], e3, h, w)
	if err != nil {
		return nil, err
	}
	cs1 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e1, Kernel: 1, Stride: 1}
	gAct1, err := g.convBackward(act, p.E1W, g1, cs1, gp.E1W, gp.E1B)
	if err != nil {
		return nil, err
	}
	cs3 := tensor.ConvShape{InC: s, InH: h, InW: w, OutC: e3, Kernel: 3, Stride: 1, Padding: 1}
	gAct3, err := g.convBackward(act, p.E3W, g3, cs3, gp.E3W, gp.E3B)
	if err != nil {
		return nil, err
	}
	if err := gAct1.AddInPlace(gAct3); err != nil {
		return nil, err
	}
	// Squeeze ReLU: the activation is zero exactly where its input was.
	for j := range gAct1.Data {
		if act.Data[j] <= 0 {
			gAct1.Data[j] = 0
		}
	}
	csS := tensor.ConvShape{InC: l.In, InH: h, InW: w, OutC: s, Kernel: 1, Stride: 1}
	return g.convBackward(in, p.SqueezeW, gAct1, csS, gp.SqueezeW, gp.SqueezeB)
}

// convBackward backpropagates a convolution given its input, weights and
// output gradient, accumulating into gw/gb and returning the input gradient.
// All five transient matrices — the unfolded columns, both transposes, the
// weight-gradient delta and the column gradient — are carved from g.bwd and
// both products run on g's GEMM workspace, so a steady training loop
// allocates none of them. Each transient is written whole before it is read.
func (g *Grads) convBackward(in, weights, gradOut *tensor.Tensor, cs tensor.ConvShape, gw, gb *tensor.Tensor) (*tensor.Tensor, error) {
	outH, outW := cs.OutHW()
	hw := outH * outW
	kk := cs.InC * cs.Kernel * cs.Kernel
	g.bwd = parallel.Grow(g.bwd, 3*kk*hw+2*cs.OutC*kk)
	free := g.bwd
	mat := func(rows, cols int) *tensor.Tensor {
		m := &tensor.Tensor{Shape: []int{rows, cols}, Data: free[: rows*cols : rows*cols]}
		free = free[rows*cols:]
		return m
	}
	cols, colsT, gwDelta, wT, gcols := mat(kk, hw), mat(hw, kk), mat(cs.OutC, kk), mat(kk, cs.OutC), mat(kk, hw)
	if err := tensor.Im2ColInto(in, cs, cols); err != nil {
		return nil, err
	}
	grad2d, err := gradOut.Reshape(cs.OutC, hw)
	if err != nil {
		return nil, err
	}
	if err := tensor.TransposeInto(cols, colsT); err != nil {
		return nil, err
	}
	if err := g.ws.gemm.MatMulInto(grad2d, colsT, gwDelta); err != nil {
		return nil, err
	}
	if err := gw.AddInPlace(gwDelta); err != nil {
		return nil, err
	}
	for c := 0; c < cs.OutC; c++ {
		s := 0.0
		for _, v := range grad2d.Data[c*hw : (c+1)*hw] {
			s += v
		}
		gb.Data[c] += s
	}
	if err := tensor.TransposeInto(weights, wT); err != nil {
		return nil, err
	}
	if err := g.ws.gemm.MatMulInto(wT, grad2d, gcols); err != nil {
		return nil, err
	}
	return tensor.Col2Im(gcols, cs)
}

func (n *Net) convBackward(i int, l Layer, in, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	cs := tensor.ConvShape{
		InC: l.In, InH: in.Shape[1], InW: in.Shape[2],
		OutC: l.Out, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding,
	}
	return g.convBackward(in, n.Weights[i], gradOut, cs, g.Weights[i], g.Biases[i])
}

func (n *Net) depthwiseBackward(i int, l Layer, in, gradOut *tensor.Tensor, g *Grads) (*tensor.Tensor, error) {
	h, w := in.Shape[1], in.Shape[2]
	outH := (h+2*l.Padding-l.Kernel)/l.Stride + 1
	outW := (w+2*l.Padding-l.Kernel)/l.Stride + 1
	gin := tensor.New(l.In, h, w)
	kk := l.Kernel * l.Kernel
	for c := 0; c < l.Out; c++ {
		cs := tensor.ConvShape{InC: 1, InH: h, InW: w, OutC: 1, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
		chanIn, err := tensor.FromSlice(in.Data[c*h*w:(c+1)*h*w], 1, h, w)
		if err != nil {
			return nil, err
		}
		cols, err := tensor.Im2Col(chanIn, cs)
		if err != nil {
			return nil, err
		}
		gradSeg, err := tensor.FromSlice(gradOut.Data[c*outH*outW:(c+1)*outH*outW], 1, outH*outW)
		if err != nil {
			return nil, err
		}
		colsT, err := tensor.Transpose(cols)
		if err != nil {
			return nil, err
		}
		gw := tensor.New(1, kk)
		if err := g.ws.gemm.MatMulInto(gradSeg, colsT, gw); err != nil {
			return nil, err
		}
		for j := 0; j < kk; j++ {
			g.Weights[i].Data[c*kk+j] += gw.Data[j]
		}
		s := 0.0
		for _, v := range gradSeg.Data {
			s += v
		}
		g.Biases[i].Data[c] += s
		wRow, err := tensor.FromSlice(n.Weights[i].Data[c*kk:(c+1)*kk], 1, kk)
		if err != nil {
			return nil, err
		}
		wT, err := tensor.Transpose(wRow)
		if err != nil {
			return nil, err
		}
		gcols := tensor.New(kk, outH*outW)
		if err := g.ws.gemm.MatMulInto(wT, gradSeg, gcols); err != nil {
			return nil, err
		}
		gch, err := tensor.Col2Im(gcols, cs)
		if err != nil {
			return nil, err
		}
		copy(gin.Data[c*h*w:(c+1)*h*w], gch.Data)
	}
	return gin, nil
}

func fcBackward(w, in, gradOut *tensor.Tensor, gw, gb *tensor.Tensor) (*tensor.Tensor, error) {
	out, inDim := w.Shape[0], w.Shape[1]
	if gradOut.Len() != out || in.Len() != inDim {
		return nil, fmt.Errorf("fc backward shape mismatch")
	}
	for o := 0; o < out; o++ {
		gv := gradOut.Data[o]
		gb.Data[o] += gv
		if gv == 0 {
			continue
		}
		row := gw.Data[o*inDim : (o+1)*inDim]
		for j, v := range in.Data {
			row[j] += gv * v
		}
	}
	gin := tensor.New(inDim, 1, 1)
	for o := 0; o < out; o++ {
		gv := gradOut.Data[o]
		if gv == 0 {
			continue
		}
		row := w.Data[o*inDim : (o+1)*inDim]
		for j := range gin.Data {
			gin.Data[j] += gv * row[j]
		}
	}
	return gin, nil
}

// SoftmaxCrossEntropy returns the loss and the gradient w.r.t. the logits
// for an integer label.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (float64, *tensor.Tensor) {
	probs := softmax(logits.Data)
	grad := tensor.New(logits.Shape...)
	for i, p := range probs {
		grad.Data[i] = p
	}
	grad.Data[label]--
	return -math.Log(math.Max(probs[label], 1e-12)), grad
}

// DistillLoss returns the soft-target cross-entropy against teacher logits
// (temperature 1) and its gradient — the paper's knowledge-distillation
// trick: composed DNNs are trained on the base DNN's output logits.
func DistillLoss(logits, teacherLogits *tensor.Tensor) (float64, *tensor.Tensor) {
	p := softmax(logits.Data)
	q := softmax(teacherLogits.Data)
	loss := 0.0
	grad := tensor.New(logits.Shape...)
	for i := range p {
		loss -= q[i] * math.Log(math.Max(p[i], 1e-12))
		grad.Data[i] = p[i] - q[i]
	}
	return loss, grad
}

func softmax(logits []float64) []float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	out := make([]float64, len(logits))
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Step applies accumulated gradients with learning rate lr divided by batch
// size, then zeroes them.
func (n *Net) Step(g *Grads, lr float64, batch int) {
	scale := lr / float64(batch)
	apply := func(val, grad *tensor.Tensor) {
		for j := range val.Data {
			val.Data[j] -= scale * grad.Data[j]
		}
		grad.Zero()
	}
	for i, w := range n.Weights {
		if w == nil {
			continue
		}
		apply(w, g.Weights[i])
		apply(n.Biases[i], g.Biases[i])
	}
	for i, p := range n.FireAt {
		gp := g.FireAt[i]
		if gp == nil {
			continue
		}
		apply(p.SqueezeW, gp.SqueezeW)
		apply(p.SqueezeB, gp.SqueezeB)
		apply(p.E1W, gp.E1W)
		apply(p.E1B, gp.E1B)
		apply(p.E3W, gp.E3W)
		apply(p.E3B, gp.E3B)
	}
}

// TrainSample accumulates one sample's gradients into g and returns its loss.
// When teacher is non-nil the distillation loss against the teacher's logits
// is used instead of the hard label.
func (n *Net) TrainSample(x *tensor.Tensor, label int, teacher *tensor.Tensor, g *Grads) (float64, error) {
	p, err := n.planFor(0, len(n.Model.Layers), true)
	if err != nil {
		return 0, err
	}
	if err := p.checkInputs([]*tensor.Tensor{x}); err != nil {
		return 0, err
	}
	cache := n.forward(&g.ws, p, x)
	var loss float64
	var grad *tensor.Tensor
	if teacher != nil {
		loss, grad = DistillLoss(cache.output, teacher)
	} else {
		loss, grad = SoftmaxCrossEntropy(cache.output, label)
	}
	if err := n.backward(cache, grad, g); err != nil {
		return 0, err
	}
	return loss, nil
}

// Predict returns the argmax class of the logits for x.
func (n *Net) Predict(x *tensor.Tensor) (int, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, nil
}
