package rl

import (
	"fmt"
	"math"
	"math/rand"

	"cadmc/internal/lane"
)

// LSTM is a single-direction LSTM layer with input dimension In and hidden
// dimension H. Gate order in the stacked weight matrices is i, f, g, o.
type LSTM struct {
	In, H int
	// W maps input → gates (4H×In), U maps hidden → gates (4H×H),
	// B is the gate bias (4H).
	W, U, B *Param
}

// NewLSTM builds an LSTM with Xavier-initialised weights and forget bias 1.
func NewLSTM(in, hidden int, rng *rand.Rand) (*LSTM, error) {
	if in <= 0 || hidden <= 0 {
		return nil, fmt.Errorf("rl: lstm dims must be positive, got %d/%d", in, hidden)
	}
	l := &LSTM{
		In: in, H: hidden,
		W: newParam(4*hidden*in, xavier(rng, in, hidden)),
		U: newParam(4*hidden*hidden, xavier(rng, hidden, hidden)),
		B: newParam(4*hidden, nil),
	}
	// Forget-gate bias 1 stabilises early training.
	for j := hidden; j < 2*hidden; j++ {
		l.B.Val[j] = 1
	}
	return l, nil
}

// Params exposes the trainable blocks.
func (l *LSTM) Params() []*Param { return []*Param{l.W, l.U, l.B} }

// slab is a controller's float memory, a bump allocator. A forward takes
// its gates, cell states and encoder states from it and they stay put until
// the controller's next Step rewinds it; every pass from before that Step
// is refused (errStalePass) before anything reads it. Work that lives only
// inside one call (a backward's scratch, the forward behind Logits) is
// returned with mark/release. Memory taken is not cleared: every taker
// writes before it reads. When a request does not fit, a larger buffer
// replaces the current one; the passes that still point into the old one
// keep it alive, and nothing writes to it again.
type slab struct {
	buf []float64
	off int
	gen int // bumped with each new buffer, so release knows the old one went
}

type slabMark struct{ gen, off int }

func (s *slab) take(n int) []float64 {
	if s.off+n > len(s.buf) {
		s.buf = make([]float64, max(2*len(s.buf), n, 1<<12))
		s.off = 0
		s.gen++
	}
	v := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	return v
}

func (s *slab) mark() slabMark { return slabMark{s.gen, s.off} }

// release returns everything taken since m. If a new buffer came in since,
// all of it was taken since m.
func (s *slab) release(m slabMark) {
	s.off = 0
	if m.gen == s.gen {
		s.off = m.off
	}
}

func (s *slab) rewind() { s.off = 0 }

// LSTMCache is one direction's forward over an n-step sequence, kept for
// BPTT. Step s reads timestep t = s, or t = n−1−s in a direction that walks
// the sequence backwards. The cache's own slabs are indexed by step; the
// hidden states, and the gradients backward takes on them, by timestep, in
// the encoder's shared n×stride layout.
type LSTMCache struct {
	seq         [][]float64
	rev         bool
	h           []float64 // h_t is h[t*stride+off:][:H]
	stride, off int
	gates       []float64 // n×4H: i, f, g, o after activation
	c, tc       []float64 // n×H: the cell state and its tanh
}

// at is the timestep step s reads.
func (c *LSTMCache) at(s int) int {
	if c.rev {
		return len(c.seq) - 1 - s
	}
	return s
}

// forward runs the recurrence over seq with zero initial states, writing
// h_t into h (see LSTMCache); every other slab comes from mem.
//
// Each gate pre-activation is the serial sum B + Σ_k W·x + Σ_k U·h with k
// ascending, as a per-gate dot product computes it: the W·x prefix of every
// step is summed before the recurrence, which continues the same sums with
// U·h. Gate slabs are then overwritten in place by their activations.
//
// The products run on Wᵀ and Uᵀ, rebuilt here from W and U on every call:
// whatever wrote the weights since (an optimiser step, a test), the forward
// reads what they hold now.
func (l *LSTM) forward(seq [][]float64, rev bool, h []float64, stride, off int, mem *slab) (LSTMCache, error) {
	for t, x := range seq {
		if len(x) != l.In {
			return LSTMCache{}, fmt.Errorf("rl: lstm step %d input dim %d, want %d", t, len(x), l.In)
		}
	}
	n, nh, g4 := len(seq), l.H, 4*l.H
	c := LSTMCache{seq: seq, rev: rev, h: h, stride: stride, off: off,
		gates: mem.take(n * g4), c: mem.take(n * nh), tc: mem.take(n * nh)}
	defer mem.release(mem.mark())
	wT := transpose(mem.take(l.In*g4), l.W.Val, g4)
	uT := transpose(mem.take(nh*g4), l.U.Val, g4)
	for s := 0; s < n; s++ {
		z := c.gates[s*g4:][:g4]
		copy(z, l.B.Val)
		lane.GemvT(z, wT, g4, seq[c.at(s)], false)
	}
	zero := mem.take(nh)
	clear(zero)
	hPrev, cPrev := zero, zero
	for s := 0; s < n; s++ {
		z := c.gates[s*g4:][:g4]
		lane.GemvT(z, uT, g4, hPrev, false)
		ht := h[c.at(s)*stride+off:][:nh]
		cs, tcs := c.c[s*nh:][:nh], c.tc[s*nh:][:nh]
		zi, zf, zg, zo := z[:nh], z[nh:2*nh], z[2*nh:3*nh], z[3*nh:]
		for j := range ht {
			i, f, g, o := sigmoid(zi[j]), sigmoid(zf[j]), math.Tanh(zg[j]), sigmoid(zo[j])
			zi[j], zf[j], zg[j], zo[j] = i, f, g, o
			cs[j] = f*cPrev[j] + i*g
			tcs[j] = math.Tanh(cs[j])
			ht[j] = o * tcs[j]
		}
		hPrev, cPrev = ht, cs
	}
	return c, nil
}

// backward runs BPTT for c given dH, the gradient on its hidden states in
// the layout c.h has, and accumulates the W, U and B gradients. No input
// gradient: the encoder is the controllers' first layer.
//
// The recurrence computes only each step's dz and dh_{s−1} = Uᵀ·dz, which
// reads row-major U as it stands. The weight gradients are one pass
// afterwards in which every element is the same serial sum a per-step update
// makes: its current value plus one term per step in the order BPTT visits
// the steps (descending), skipping the steps whose dz is zero — a zero dz
// times an Inf or NaN input would otherwise turn the sum to NaN.
func (l *LSTM) backward(c *LSTMCache, dH []float64, mem *slab) error {
	if len(dH) != len(c.h) {
		return fmt.Errorf("rl: lstm backward got %d gradient values for %d", len(dH), len(c.h))
	}
	defer mem.release(mem.mark())
	n, in, nh, g4 := len(c.seq), l.In, l.H, 4*l.H
	// Row j of xs and hs is the j-th step BPTT visits, s = n−1−j: the input
	// and the previous hidden state the weights saw. Row r of dzT is gate
	// row r's dz over those steps.
	dzT, xs, hs := mem.take(g4*n), mem.take(n*in), mem.take(n*nh)
	dz := mem.take(g4)
	dhNext, dcNext, zero := mem.take(nh), mem.take(nh), mem.take(nh)
	clear(dhNext)
	clear(dcNext)
	clear(zero)
	for j := 0; j < n; j++ {
		s := n - 1 - j
		z := c.gates[s*g4:][:g4]
		gi, gf, gg, gob := z[:nh], z[nh:2*nh], z[2*nh:3*nh], z[3*nh:]
		tcs := c.tc[s*nh:][:nh]
		cPrev, hPrev := zero, zero
		if s > 0 {
			cPrev = c.c[(s-1)*nh:][:nh]
			hPrev = c.h[c.at(s-1)*c.stride+c.off:][:nh]
		}
		dHs := dH[c.at(s)*c.stride+c.off:][:nh]
		for k, dHk := range dHs {
			dh := dhNext[k] + dHk
			i, f, g, o, tc := gi[k], gf[k], gg[k], gob[k], tcs[k]
			do := dh * tc
			dc := dcNext[k] + dh*o*(1-tc*tc)
			di := dc * g
			df := dc * cPrev[k]
			dg := dc * i
			dcNext[k] = dc * f
			dz[k] = di * i * (1 - i)
			dz[nh+k] = df * f * (1 - f)
			dz[2*nh+k] = dg * (1 - g*g)
			dz[3*nh+k] = do * o * (1 - o)
		}
		for r, v := range dz {
			dzT[r*n+j] = v
		}
		copy(xs[j*in:][:in], c.seq[c.at(s)])
		copy(hs[j*nh:][:nh], hPrev)
		if s > 0 {
			clear(dhNext)
			lane.GemvT(dhNext, l.U.Val, nh, dz, true)
		}
	}
	for r := 0; r < g4; r++ {
		dzr := dzT[r*n:][:n]
		b := l.B.Grad[r]
		for _, g := range dzr {
			if g != 0 {
				b += g
			}
		}
		l.B.Grad[r] = b
		lane.GemvT(l.W.Grad[r*in:][:in], xs, in, dzr, true)
		lane.GemvT(l.U.Grad[r*nh:][:nh], hs, nh, dzr, true)
	}
	return nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// BiLSTM is a bidirectional LSTM: a forward and a backward pass whose hidden
// states are concatenated per timestep — the encoder of both controllers
// (Fig. 6: "a DNN layer x_i is fed into a forward LSTM as well as a backward
// LSTM to compute the corresponding hidden states H_i").
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM builds a bidirectional LSTM with the given per-direction hidden
// size; its output dimension is 2·hidden.
func NewBiLSTM(in, hidden int, rng *rand.Rand) (*BiLSTM, error) {
	f, err := NewLSTM(in, hidden, rng)
	if err != nil {
		return nil, err
	}
	b, err := NewLSTM(in, hidden, rng)
	if err != nil {
		return nil, err
	}
	return &BiLSTM{Fwd: f, Bwd: b}, nil
}

// OutDim returns the concatenated hidden dimension.
func (b *BiLSTM) OutDim() int { return b.Fwd.H + b.Bwd.H }

// Params exposes both directions' parameters.
func (b *BiLSTM) Params() []*Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}

// BiCache is one encoder forward: both directions' caches and the states
// [h_fwd(t) ; h_bwd(t)], one n×OutDim slab the two directions write into.
type BiCache struct {
	out      []float64
	dim      int
	fwd, bwd LSTMCache
}

// Len returns the number of timesteps encoded.
func (c *BiCache) Len() int { return len(c.fwd.seq) }

// H returns the encoder state at timestep t.
func (c *BiCache) H(t int) []float64 { return c.out[t*c.dim : (t+1)*c.dim : (t+1)*c.dim] }

// Forward encodes the sequence with its slabs taken from mem.
func (b *BiLSTM) Forward(seq [][]float64, mem *slab) (BiCache, error) {
	d := b.OutDim()
	out := mem.take(len(seq) * d)
	fwd, err := b.Fwd.forward(seq, false, out, d, 0, mem)
	if err != nil {
		return BiCache{}, err
	}
	bwd, err := b.Bwd.forward(seq, true, out, d, b.Fwd.H, mem)
	if err != nil {
		return BiCache{}, err
	}
	return BiCache{out: out, dim: d, fwd: fwd, bwd: bwd}, nil
}

// Backward propagates dH, the gradient on the encoder states laid out as
// Forward wrote them (n×OutDim), into both directions' parameters.
func (b *BiLSTM) Backward(c *BiCache, dH []float64, mem *slab) error {
	if err := b.Fwd.backward(&c.fwd, dH, mem); err != nil {
		return err
	}
	return b.Bwd.backward(&c.bwd, dH, mem)
}

// Linear is a dense layer y = Wx + b.
type Linear struct {
	In, Out int
	W, B    *Param
}

// NewLinear builds a Xavier-initialised dense layer.
func NewLinear(in, out int, rng *rand.Rand) (*Linear, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("rl: linear dims must be positive, got %d/%d", in, out)
	}
	return &Linear{
		In: in, Out: out,
		W: newParam(out*in, xavier(rng, in, out)),
		B: newParam(out, nil),
	}, nil
}

// Params exposes the trainable blocks.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Forward writes y = Wx + b into y.
func (l *Linear) Forward(x, y []float64) error {
	if len(x) != l.In || len(y) != l.Out {
		return fmt.Errorf("rl: linear dims %d→%d, want %d→%d", len(x), len(y), l.In, l.Out)
	}
	for o := range y {
		row := l.W.Val[o*l.In : (o+1)*l.In]
		s := l.B.Val[o]
		for k, xv := range x {
			s += row[k] * xv
		}
		y[o] = s
	}
	return nil
}

// Backward accumulates the parameter gradients for dY and adds Wᵀ·dY into
// dx.
func (l *Linear) Backward(x, dY, dx []float64) error {
	if len(x) != l.In || len(dY) != l.Out || len(dx) != l.In {
		return fmt.Errorf("rl: linear backward dims %d/%d/%d, want %d/%d/%d", len(x), len(dY), len(dx), l.In, l.Out, l.In)
	}
	for o, g := range dY {
		l.B.Grad[o] += g
		if g == 0 {
			continue
		}
		row := l.W.Val[o*l.In : (o+1)*l.In]
		gRow := l.W.Grad[o*l.In : (o+1)*l.In]
		for k, xv := range x {
			gRow[k] += g * xv
			dx[k] += g * row[k]
		}
	}
	return nil
}

// transpose writes the rows×cols row-major src into dst as cols×rows.
func transpose(dst, src []float64, rows int) []float64 {
	cols := len(src) / rows
	for r := 0; r < rows; r++ {
		for k, x := range src[r*cols : (r+1)*cols] {
			dst[k*rows+r] = x
		}
	}
	return dst
}
