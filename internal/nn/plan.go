package nn

import (
	"fmt"

	"cadmc/internal/tensor"
)

// planKey names one compiled layer range. keep is the training form: every
// layer's output stays live for the backward pass.
type planKey struct {
	from, to int
	keep     bool
}

// plan is layers [from, to) compiled for execution: shapes, where each
// activation lives in the workspace slab and for how long. It holds no
// weights — steps read n.Weights at run time, so training steps, weight
// surgery and integrity checks all see the bytes that execute — and nothing
// mutable, so any number of goroutines run one plan at once.
//
// The slab holds a batch of B as B consecutive samples per slot: slot s
// starts at B·off[s]. Liveness decides the slots: an activation's slot is
// reused as soon as its last reader has run, which leaves two slots
// ping-ponging plus one per skip source a later Add still has to read.
// ReLU, BatchNorm and Add overwrite their operand when nothing else reads
// it; Dropout and Flatten are renames and compile to nothing; a ReLU that
// follows a layer with an epilogue is folded into it.
type plan struct {
	from   int
	shapes []Shape // shapes[v]: the output of layer from+v-1; shapes[0] is the input
	steps  []step
	val    []int // val[v]: the slot shapes[v] lives in
	off    []int // per-sample slab offset of each slot
	size   int   // slab floats per sample
	convs  []tensor.ConvShape
}

// step is one executed layer. Slots index plan.off.
type step struct {
	layer    int
	src, dst int
	skip     int // Add: the skip operand
	aux      int // Fire: the squeeze activation; projected Add: the projection
	relu     bool
}

func (p *plan) in() Shape  { return p.shapes[0] }
func (p *plan) out() Shape { return p.shapes[len(p.shapes)-1] }

// slabLen is the workspace one forward of a batch needs: every slot, then
// the GEMM's panel scratch.
func (p *plan) slabLen(batch int) int {
	panels := 0
	for _, cs := range p.convs {
		panels = max(panels, cs.PanelLen(batch))
	}
	return batch*p.size + panels
}

// planFor returns the compiled plan of [from, to), compiling it on first use.
// The cache insert is the only synchronised step of a forward.
func (n *Net) planFor(from, to int, keep bool) (*plan, error) {
	key := planKey{from, to, keep}
	n.planMu.Lock()
	defer n.planMu.Unlock()
	if p := n.plans[key]; p != nil {
		return p, nil
	}
	p, err := n.compile(from, to, keep)
	if err != nil {
		return nil, err
	}
	if n.plans == nil {
		n.plans = make(map[planKey]*plan)
	}
	n.plans[key] = p
	return p, nil
}

func (n *Net) compile(from, to int, keep bool) (*plan, error) {
	layers := n.Model.Layers
	if from < 0 || to > len(layers) || from > to {
		return nil, fmt.Errorf("nn: forward range [%d,%d) invalid for %d layers", from, to, len(layers))
	}
	dims, err := n.Model.InferDims()
	if err != nil {
		return nil, err
	}
	p := &plan{from: from, shapes: make([]Shape, to-from+1), val: make([]int, to-from+1)}
	p.shapes[0] = n.Model.Input
	if from > 0 {
		p.shapes[0] = dims[from-1].Out
	}
	for i := from; i < to; i++ {
		p.shapes[i-from+1] = dims[i].Out
	}

	// lastSkip[v]: the last Add that reads value v as its skip operand.
	lastSkip := make([]int, len(p.val))
	for v := range lastSkip {
		lastSkip[v] = -1
	}
	for i := from; i < to; i++ {
		if layers[i].Type != Add {
			continue
		}
		if layers[i].SkipFrom < from-1 {
			return nil, fmt.Errorf("nn: forward layer %d (Add): skip source %d precedes range start %d", i, layers[i].SkipFrom, from)
		}
		lastSkip[layers[i].SkipFrom-from+1] = i
	}

	// A slot is free once the layer `hold` — the last reader of its content
	// through a skip — is behind us and it is not the running activation.
	type slot struct{ size, hold int }
	var slots []slot
	alloc := func(elems int) int {
		for s := range slots {
			if slots[s].hold == -2 {
				slots[s] = slot{max(slots[s].size, elems), -1}
				return s
			}
		}
		slots = append(slots, slot{elems, -1})
		return len(slots) - 1
	}
	place := func(v, s int) {
		p.val[v] = s
		slots[s].hold = max(slots[s].hold, lastSkip[v])
	}

	cur := alloc(p.in().Elems())
	place(0, cur)
	for i := from; i < to; i++ {
		l, v := layers[i], i-from+1
		d := Dims{In: p.shapes[v-1], Out: p.shapes[v]}
		st := step{layer: i, src: cur, dst: cur}
		inPlace := !keep && slots[cur].hold <= i
		switch l.Type {
		case Dropout, Flatten:
			place(v, cur)
			continue
		case ReLU, BatchNorm:
			if l.Type == BatchNorm && (n.Weights[i] == nil || n.Biases[i] == nil) {
				return nil, fmt.Errorf("nn: forward layer %d (BN): parameters missing", i)
			}
			if !inPlace {
				st.dst = alloc(d.Out.Elems())
			}
		case Add:
			st.skip = p.val[l.SkipFrom-from+1]
			if l.Out > 0 {
				if n.Weights[i] == nil || n.Biases[i] == nil {
					return nil, fmt.Errorf("nn: forward layer %d (Add): projection parameters missing", i)
				}
				st.aux = alloc(d.Out.Elems())
				p.convs = append(p.convs, projShape(l, p.shapes[l.SkipFrom-from+1]))
			}
			if !inPlace {
				st.dst = alloc(d.Out.Elems())
			}
		case Conv, FC, DepthwiseConv:
			p.convs = append(p.convs, convShape(l, d.In))
			st.dst = alloc(d.Out.Elems())
		case Fire:
			if n.FireAt[i] == nil {
				return nil, fmt.Errorf("nn: forward layer %d (Fire): fire parameters missing", i)
			}
			sq, e1, e3 := fireShapes(l, d.In)
			p.convs = append(p.convs, sq, e1, e3)
			st.aux = alloc(sq.OutC * d.In.H * d.In.W)
			st.dst = alloc(d.Out.Elems())
		case MaxPool, GlobalAvgPool:
			st.dst = alloc(d.Out.Elems())
		default:
			return nil, fmt.Errorf("nn: forward layer %d: layer type %s not executable", i, l.Type)
		}
		place(v, st.dst)
		cur = st.dst
		if !keep && l.Type != MaxPool && l.Type != GlobalAvgPool && l.Type != ReLU &&
			i+1 < to && layers[i+1].Type == ReLU && lastSkip[v] < 0 {
			st.relu = true
			i++
			place(v+1, cur)
		}
		p.steps = append(p.steps, st)
		if !keep {
			for s := range slots {
				if s != cur && slots[s].hold >= -1 && slots[s].hold <= i {
					slots[s].hold = -2
				}
			}
		}
	}

	p.off = make([]int, len(slots))
	for s := range slots {
		p.off[s] = p.size
		p.size += slots[s].size
	}
	return p, nil
}

func convShape(l Layer, in Shape) tensor.ConvShape {
	cs := tensor.ConvShape{InC: l.In, InH: in.H, InW: in.W, OutC: l.Out, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
	switch l.Type {
	case FC:
		cs.Kernel, cs.Stride = 1, 1
	case DepthwiseConv:
		cs.InC, cs.OutC = 1, 1 // one channel at a time
	}
	return cs
}

// projShape is the strided 1×1 convolution on a projected Add's skip path.
func projShape(l Layer, src Shape) tensor.ConvShape {
	return tensor.ConvShape{InC: l.In, InH: src.H, InW: src.W, OutC: l.Out, Kernel: 1, Stride: l.Stride}
}

// fireShapes returns a Fire module's three convolutions: the 1×1 squeeze and
// the 1×1 and 3×3 expands whose outputs are the two channel halves.
func fireShapes(l Layer, in Shape) (sq, e1, e3 tensor.ConvShape) {
	s, n1 := l.Squeeze, l.Out/2
	sq = tensor.ConvShape{InC: l.In, InH: in.H, InW: in.W, OutC: s, Kernel: 1, Stride: 1}
	e1 = tensor.ConvShape{InC: s, InH: in.H, InW: in.W, OutC: n1, Kernel: 1, Stride: 1}
	e3 = tensor.ConvShape{InC: s, InH: in.H, InW: in.W, OutC: l.Out - n1, Kernel: 3, Stride: 1, Padding: 1}
	return sq, e1, e3
}

// run executes a compiled plan over one batch in one slab.
type run struct {
	n     *Net
	p     *plan
	batch int
	slab  []float64
	ws    *tensor.Workspace
}

// at returns the whole batch of a slot's activation: sample b occupies
// [b·elems, (b+1)·elems).
func (r *run) at(slot, elems int) []float64 {
	lo := r.batch * r.p.off[slot]
	return r.slab[lo : lo+r.batch*elems]
}

// execute copies the inputs into the slab — they are never written — runs
// every step and returns the batch of final activations, a view of slab.
// slab must hold p.slabLen(len(xs)) floats; every float a step reads was
// written by an earlier step or by the copy, so its contents do not matter.
func (n *Net) execute(p *plan, xs []*tensor.Tensor, slab []float64) []float64 {
	r := run{n: n, p: p, batch: len(xs), slab: slab}
	r.ws = tensor.NewWorkspace(slab[r.batch*p.size:])
	elems := p.in().Elems()
	in := r.at(p.val[0], elems)
	for b, x := range xs {
		copy(in[b*elems:(b+1)*elems], x.Data)
	}
	for i := range p.steps {
		r.step(&p.steps[i])
	}
	return r.at(p.val[len(p.val)-1], p.out().Elems())
}

func (r *run) step(s *step) {
	n, i := r.n, s.layer
	l := n.Model.Layers[i]
	d := Dims{In: r.p.shapes[i-r.p.from], Out: r.p.shapes[i-r.p.from+1]}
	inN, outN := d.In.Elems(), d.Out.Elems()
	src, dst := r.at(s.src, inN), r.at(s.dst, outN)
	switch l.Type {
	case Conv:
		ep := tensor.Epilogue{Bias: n.Biases[i].Data, ReLU: s.relu}
		r.ws.Conv2D(dst, outN, src, inN, r.batch, n.Weights[i].Data, convShape(l, d.In), ep)
	case FC:
		ep := tensor.Epilogue{Bias: n.Biases[i].Data, BiasFirst: true, ReLU: s.relu}
		r.ws.Conv2D(dst, outN, src, inN, r.batch, n.Weights[i].Data, convShape(l, d.In), ep)
	case DepthwiseConv:
		cs, kk := convShape(l, d.In), l.Kernel*l.Kernel
		inHW, outHW := d.In.H*d.In.W, d.Out.H*d.Out.W
		for c := 0; c < l.Out; c++ {
			ep := tensor.Epilogue{Bias: n.Biases[i].Data[c : c+1], ReLU: s.relu}
			r.ws.Conv2D(dst[c*outHW:], outN, src[c*inHW:], inN, r.batch, n.Weights[i].Data[c*kk:(c+1)*kk], cs, ep)
		}
	case Fire:
		// squeeze(1×1)+ReLU, then the 1×1 and 3×3 expands written straight
		// into their channel halves.
		fp := n.FireAt[i]
		sq, e1, e3 := fireShapes(l, d.In)
		hw := d.In.H * d.In.W
		act := r.at(s.aux, sq.OutC*hw)
		r.ws.Conv2D(act, sq.OutC*hw, src, inN, r.batch, fp.SqueezeW.Data, sq, tensor.Epilogue{Bias: fp.SqueezeB.Data, ReLU: true})
		r.ws.Conv2D(dst, outN, act, sq.OutC*hw, r.batch, fp.E1W.Data, e1, tensor.Epilogue{Bias: fp.E1B.Data, ReLU: s.relu})
		r.ws.Conv2D(dst[e1.OutC*hw:], outN, act, sq.OutC*hw, r.batch, fp.E3W.Data, e3, tensor.Epilogue{Bias: fp.E3B.Data, ReLU: s.relu})
	case MaxPool:
		tensor.MaxPool2DInto(dst, src, r.batch*d.In.C, d.In.H, d.In.W, l.Kernel, l.Stride)
	case GlobalAvgPool:
		hw := d.In.H * d.In.W
		for pl := range dst {
			sum := 0.0
			for _, v := range src[pl*hw : (pl+1)*hw] {
				sum += v
			}
			dst[pl] = sum / float64(hw)
		}
	case ReLU:
		for j, v := range src {
			if v < 0 {
				v = 0
			}
			dst[j] = v
		}
	case BatchNorm:
		// The frozen affine y = γ_c·x + β_c (per-sample training cannot
		// estimate batch statistics).
		hw := d.In.H * d.In.W
		for pl := 0; pl < r.batch*d.In.C; pl++ {
			g, beta := n.Weights[i].Data[pl%d.In.C], n.Biases[i].Data[pl%d.In.C]
			out := dst[pl*hw : (pl+1)*hw]
			for j, v := range src[pl*hw : (pl+1)*hw] {
				v = g*v + beta
				if s.relu && v < 0 {
					v = 0
				}
				out[j] = v
			}
		}
	case Add:
		skip := s.skip
		if l.Out > 0 { // project the skip source through its strided 1×1 convolution first
			from := r.p.shapes[l.SkipFrom-r.p.from+1]
			r.ws.Conv2D(r.at(s.aux, outN), outN, r.at(s.skip, from.Elems()), from.Elems(), r.batch, n.Weights[i].Data, projShape(l, from), tensor.Epilogue{Bias: n.Biases[i].Data})
			skip = s.aux
		}
		add := r.at(skip, outN)
		for j, v := range src {
			v += add[j]
			if s.relu && v < 0 {
				v = 0
			}
			dst[j] = v
		}
	}
}
