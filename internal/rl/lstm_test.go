package rl

import (
	"math"
	"math/rand"
	"testing"
)

// runLSTM runs l forwards over seq on a fresh slab: its hidden states
// (n×H) and its cache.
func runLSTM(t *testing.T, l *LSTM, seq [][]float64) ([]float64, LSTMCache) {
	t.Helper()
	h := make([]float64, len(seq)*l.H)
	cache, err := l.forward(seq, false, h, l.H, 0, &slab{})
	if err != nil {
		t.Fatal(err)
	}
	return h, cache
}

// TestLSTMGradientCheck validates BPTT against central finite differences on
// a scalar loss L = Σ_t w·h_t.
func TestLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lstm, err := NewLSTM(3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{
		{0.5, -0.2, 0.1},
		{-0.3, 0.8, 0.4},
		{0.2, 0.1, -0.6},
	}
	weights := make([]float64, lstm.H)
	for i := range weights {
		weights[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		h, _ := runLSTM(t, lstm, seq)
		s := 0.0
		for i, v := range h {
			s += weights[i%lstm.H] * v
		}
		return s
	}
	// Analytic gradients.
	h, cache := runLSTM(t, lstm, seq)
	dH := make([]float64, len(h))
	for i := range dH {
		dH[i] = weights[i%lstm.H]
	}
	if err := lstm.backward(&cache, dH, &slab{}); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	check := func(name string, vals, grads []float64, idxs []int) {
		for _, i := range idxs {
			orig := vals[i]
			vals[i] = orig + eps
			up := loss()
			vals[i] = orig - eps
			down := loss()
			vals[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-grads[i]) > 1e-5*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %g vs analytic %g", name, i, numeric, grads[i])
			}
		}
	}
	check("W", lstm.W.Val, lstm.W.Grad, []int{0, 7, len(lstm.W.Val) / 2, len(lstm.W.Val) - 1})
	check("U", lstm.U.Val, lstm.U.Grad, []int{0, 5, len(lstm.U.Val) / 2, len(lstm.U.Val) - 1})
	check("B", lstm.B.Val, lstm.B.Grad, []int{0, 4, 8, len(lstm.B.Val) - 1})
}

func TestLSTMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewLSTM(0, 3, rng); err == nil {
		t.Fatal("expected dim error")
	}
	lstm, err := NewLSTM(2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lstm.forward([][]float64{{1, 2, 3}}, false, make([]float64, 3), 3, 0, &slab{}); err == nil {
		t.Fatal("expected input-dim error")
	}
	_, cache := runLSTM(t, lstm, [][]float64{{1, 2}})
	if err := lstm.backward(&cache, nil, &slab{}); err == nil {
		t.Fatal("expected grad-count error")
	}
}

func TestBiLSTMShapesAndDirectionality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bi, err := NewBiLSTM(2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if bi.OutDim() != 6 {
		t.Fatalf("OutDim = %d, want 6", bi.OutDim())
	}
	seq := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	out, err := bi.Forward(seq, &slab{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 || len(out.H(0)) != 6 {
		t.Fatalf("output shape %dx%d, want 3x6", out.Len(), len(out.H(0)))
	}
	// The backward direction must make early timesteps depend on late
	// inputs: perturbing the last input must change the first output.
	seq2 := [][]float64{{1, 0}, {0, 1}, {-3, 2}}
	out2, err := bi.Forward(seq2, &slab{})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for j, v := range out.H(0) {
		diff += math.Abs(v - out2.H(0)[j])
	}
	if diff < 1e-9 {
		t.Fatal("bidirectional encoder must propagate information backwards")
	}
}

// TestBiLSTMGradientCheck validates the shared-slab plumbing end to end.
func TestBiLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	bi, err := NewBiLSTM(2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{{0.3, -0.1}, {0.7, 0.2}}
	d := bi.OutDim()
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		enc, err := bi.Forward(seq, &slab{})
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for i, v := range enc.out {
			s += w[i%d] * v
		}
		return s
	}
	enc, err := bi.Forward(seq, &slab{})
	if err != nil {
		t.Fatal(err)
	}
	dH := make([]float64, len(enc.out))
	for i := range dH {
		dH[i] = w[i%d]
	}
	if err := bi.Backward(&enc, dH, &slab{}); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-6
	for _, p := range []*Param{bi.Fwd.W, bi.Bwd.W, bi.Fwd.B, bi.Bwd.B} {
		for _, i := range []int{0, len(p.Val) / 2, len(p.Val) - 1} {
			orig := p.Val[i]
			p.Val[i] = orig + eps
			up := loss()
			p.Val[i] = orig - eps
			down := loss()
			p.Val[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-p.Grad[i]) > 1e-5*(1+math.Abs(numeric)) {
				t.Errorf("param[%d]: numeric %g vs analytic %g", i, numeric, p.Grad[i])
			}
		}
	}
}

func TestLinearForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lin, err := NewLinear(3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -1, 2}
	y := make([]float64, 2)
	if err := lin.Forward(x, y); err != nil {
		t.Fatal(err)
	}
	dx := []float64{0.5, 0, 0}
	if err := lin.Backward(x, []float64{1, 0}, dx); err != nil {
		t.Fatal(err)
	}
	// dx must have gained the first row of W.
	for k := 0; k < 3; k++ {
		want := lin.W.Val[k]
		if k == 0 {
			want += 0.5
		}
		if math.Abs(dx[k]-want) > 1e-12 {
			t.Fatalf("dx[%d] = %v, want %v", k, dx[k], want)
		}
	}
	if err := lin.Forward([]float64{1}, y); err == nil {
		t.Fatal("expected dim error")
	}
	if err := lin.Backward(x, []float64{1}, dx); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := NewLinear(0, 2, rng); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := newParam(2, func(i int) float64 { return 5 })
	opt, err := NewAdam(0.1, []*Param{p})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		for j := range p.Val {
			p.Grad[j] = 2 * (p.Val[j] - 1) // minimise (x-1)²
		}
		opt.Step()
	}
	for j := range p.Val {
		if math.Abs(p.Val[j]-1) > 0.05 {
			t.Fatalf("Adam failed to converge: %v", p.Val)
		}
	}
}

func TestAdamValidation(t *testing.T) {
	if _, err := NewAdam(0, []*Param{newParam(1, nil)}); err == nil {
		t.Fatal("expected lr error")
	}
	if _, err := NewAdam(0.1, nil); err == nil {
		t.Fatal("expected empty-params error")
	}
}

func TestAdamClipsGradients(t *testing.T) {
	p := newParam(1, func(int) float64 { return 0 })
	opt, err := NewAdam(0.1, []*Param{p})
	if err != nil {
		t.Fatal(err)
	}
	opt.ClipNorm = 1
	p.Grad[0] = 1e6
	opt.Step()
	// After clipping, the first Adam step magnitude is bounded by ~lr.
	if math.Abs(p.Val[0]) > 0.2 {
		t.Fatalf("clipped step too large: %v", p.Val[0])
	}
}
