package nn

import (
	"math"
	"math/rand"
	"testing"

	"cadmc/internal/tensor"
)

func tinyExecModel() *Model {
	return &Model{
		Name:    "tinyexec",
		Input:   Shape{C: 2, H: 6, W: 6},
		Classes: 3,
		Layers: []Layer{
			NewConv(2, 4, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2, 2),
			NewDepthwiseConv(4, 3, 1, 1),
			NewReLU(),
			NewFlatten(),
			NewFC(4*3*3, 3),
		},
	}
}

func TestNewNetRejectsUnknownLayers(t *testing.T) {
	m := &Model{
		Name: "weird", Input: Shape{C: 3, H: 8, W: 8}, Classes: 0,
		Layers: []Layer{NewConv(3, 4, 3, 1, 1)},
	}
	net, err := NewNet(m, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the layer type after construction: execution must fail loudly.
	net.Model.Layers[0].Type = LayerType(99)
	if _, err := net.Forward(tensor.New(3, 8, 8)); err == nil {
		t.Fatal("expected unknown-layer error")
	}
}

// TestGradientCheck verifies the analytic backward pass against central
// finite differences on every parameter class (conv, depthwise, fc, bias).
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tinyExecModel()
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 6, 6)
	label := 1

	g := net.NewGrads()
	if _, err := net.TrainSample(x, label, nil, g); err != nil {
		t.Fatal(err)
	}

	loss := func() float64 {
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := SoftmaxCrossEntropy(out, label)
		return l
	}

	const eps = 1e-5
	checked := 0
	for li, w := range net.Weights {
		if w == nil {
			continue
		}
		// Probe a few parameters per layer.
		idxs := []int{0, len(w.Data) / 2, len(w.Data) - 1}
		for _, idx := range idxs {
			orig := w.Data[idx]
			w.Data[idx] = orig + eps
			up := loss()
			w.Data[idx] = orig - eps
			down := loss()
			w.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := g.Weights[li].Data[idx]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("layer %d weight %d: numeric %g vs analytic %g", li, idx, numeric, analytic)
			}
			checked++
		}
		bi := len(net.Biases[li].Data) / 2
		orig := net.Biases[li].Data[bi]
		net.Biases[li].Data[bi] = orig + eps
		up := loss()
		net.Biases[li].Data[bi] = orig - eps
		down := loss()
		net.Biases[li].Data[bi] = orig
		numeric := (up - down) / (2 * eps)
		analytic := g.Biases[li].Data[bi]
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("layer %d bias %d: numeric %g vs analytic %g", li, bi, numeric, analytic)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("gradient check probed only %d parameters", checked)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits, _ := tensor.FromSlice([]float64{1, 2, 3}, 3)
	loss, grad := SoftmaxCrossEntropy(logits, 2)
	if loss <= 0 || loss > 1 {
		t.Fatalf("loss = %v, want small positive", loss)
	}
	sum := 0.0
	for _, v := range grad.Data {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("softmax-xent gradient must sum to zero, got %v", sum)
	}
	if grad.Data[2] >= 0 {
		t.Fatal("true-class gradient must be negative")
	}
}

func TestDistillLossZeroAtTeacher(t *testing.T) {
	logits, _ := tensor.FromSlice([]float64{0.5, -1, 2}, 3)
	_, grad := DistillLoss(logits, logits.Clone())
	for _, v := range grad.Data {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("distill gradient at teacher logits must vanish, got %v", grad.Data)
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := tinyExecModel()
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Three fixed inputs, one per class.
	xs := make([]*tensor.Tensor, 3)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 2, 6, 6)
	}
	lossSum := func() float64 {
		total := 0.0
		for i, x := range xs {
			out, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			l, _ := SoftmaxCrossEntropy(out, i)
			total += l
		}
		return total
	}
	before := lossSum()
	g := net.NewGrads()
	for epoch := 0; epoch < 60; epoch++ {
		for i, x := range xs {
			if _, err := net.TrainSample(x, i, nil, g); err != nil {
				t.Fatal(err)
			}
		}
		net.Step(g, 0.05, len(xs))
	}
	after := lossSum()
	if after >= before*0.5 {
		t.Fatalf("training did not reduce loss: before %v after %v", before, after)
	}
	// The memorised samples must now classify correctly.
	for i, x := range xs {
		pred, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if pred != i {
			t.Fatalf("sample %d predicted %d", i, pred)
		}
	}
}

func TestForwardShapesMatchInference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := tinyExecModel()
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 6, 6)
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := m.InferDims()
	if err != nil {
		t.Fatal(err)
	}
	want := dims[len(dims)-1].Out
	if out.Len() != want.Elems() {
		t.Fatalf("executable output %d elems, inferred %d", out.Len(), want.Elems())
	}
}

func TestGAPExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := &Model{
		Name: "gapnet", Input: Shape{C: 2, H: 4, W: 4}, Classes: 2,
		Layers: []Layer{
			NewConv(2, 3, 3, 1, 1),
			NewReLU(),
			NewGlobalAvgPool(),
			NewFlatten(),
			NewFC(3, 2),
		},
	}
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := net.NewGrads()
	if _, err := net.TrainSample(tensor.Randn(rng, 1, 2, 4, 4), 0, nil, g); err != nil {
		t.Fatal(err)
	}
}

func buildResidualExec(t *testing.T) *Model {
	t.Helper()
	// Hand-build: stem, identity-residual block, projection-residual
	// downsample, fire, head.
	m := &Model{
		Name:    "residualexec",
		Input:   Shape{C: 3, H: 8, W: 8},
		Classes: 3,
	}
	m.Layers = []Layer{
		NewConv(3, 4, 3, 1, 1), // 0
		NewBatchNorm(),         // 1
		NewReLU(),              // 2
		NewConv(4, 4, 3, 1, 1), // 3
		NewAdd(2),              // 4
		NewReLU(),              // 5
		NewConv(4, 8, 3, 2, 1), // 6: downsample to 4x4
		NewProjAdd(5, 4, 8, 2), // 7: projection shortcut from layer 5
		NewReLU(),              // 8
		NewFire(8, 2, 8),       // 9
		NewReLU(),              // 10
		NewGlobalAvgPool(),     // 11
		NewFlatten(),           // 12
		NewFC(8, 3),            // 13
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestResidualFireModelForwardMatchesDims(t *testing.T) {
	m := buildResidualExec(t)
	net, err := NewNet(m, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.Forward(tensor.Randn(rand.New(rand.NewSource(1)), 1, 3, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("logits %d, want 3", out.Len())
	}
}

// TestGradientCheckResidualFire extends the finite-difference check to
// BatchNorm, identity/projection Adds and Fire parameters.
func TestGradientCheckResidualFire(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := buildResidualExec(t)
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 3, 8, 8)
	label := 2
	g := net.NewGrads()
	if _, err := net.TrainSample(x, label, nil, g); err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		l, _ := SoftmaxCrossEntropy(out, label)
		return l
	}
	const eps = 1e-5
	checkVals := func(name string, vals, grads *tensor.Tensor) {
		t.Helper()
		if vals == nil {
			return
		}
		idxs := []int{0, vals.Len() / 2, vals.Len() - 1}
		for _, idx := range idxs {
			orig := vals.Data[idx]
			vals.Data[idx] = orig + eps
			up := loss()
			vals.Data[idx] = orig - eps
			down := loss()
			vals.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := grads.Data[idx]
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: numeric %g vs analytic %g", name, idx, numeric, analytic)
			}
		}
	}
	// BatchNorm (layer 1), projection Add (layer 7).
	checkVals("bn.gamma", net.Weights[1], g.Weights[1])
	checkVals("bn.beta", net.Biases[1], g.Biases[1])
	checkVals("proj.w", net.Weights[7], g.Weights[7])
	checkVals("proj.b", net.Biases[7], g.Biases[7])
	// Fire parameters (layer 9).
	fp, gp := net.FireAt[9], g.FireAt[9]
	checkVals("fire.squeezeW", fp.SqueezeW, gp.SqueezeW)
	checkVals("fire.squeezeB", fp.SqueezeB, gp.SqueezeB)
	checkVals("fire.e1W", fp.E1W, gp.E1W)
	checkVals("fire.e3W", fp.E3W, gp.E3W)
	checkVals("fire.e3B", fp.E3B, gp.E3B)
	// Conv feeding the identity residual (gradient flows via two paths).
	checkVals("conv0.w", net.Weights[0], g.Weights[0])
}

func TestResidualFireModelTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := buildResidualExec(t)
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]*tensor.Tensor, 3)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	lossSum := func() float64 {
		total := 0.0
		for i, x := range xs {
			out, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			l, _ := SoftmaxCrossEntropy(out, i)
			total += l
		}
		return total
	}
	before := lossSum()
	g := net.NewGrads()
	for epoch := 0; epoch < 200; epoch++ {
		for i, x := range xs {
			if _, err := net.TrainSample(x, i, nil, g); err != nil {
				t.Fatal(err)
			}
		}
		net.Step(g, 0.08, len(xs))
	}
	after := lossSum()
	if after >= before*0.4 {
		t.Fatalf("residual/fire model did not train: %v -> %v", before, after)
	}
}

func TestForwardRangeSkipOutsideRangeErrors(t *testing.T) {
	m := buildResidualExec(t)
	net, err := NewNet(m, rand.New(rand.NewSource(44)))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(2)), 1, 3, 8, 8)
	// Cutting exactly at the skip source is fine: the transferred activation
	// serves both the chain and the skip.
	mid, err := net.ForwardRange(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardFrom(mid, 3); err != nil {
		t.Fatalf("cut at the skip source must work: %v", err)
	}
	// Cutting strictly inside the span (after layer 3) strands the source.
	mid2, err := net.ForwardRange(x, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ForwardFrom(mid2, 4); err == nil {
		t.Fatal("expected skip-source-unavailable error")
	}
}

func TestForwardFromAgreesWithFullOnResidualModel(t *testing.T) {
	m := buildResidualExec(t)
	net, err := NewNet(m, rand.New(rand.NewSource(45)))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rand.New(rand.NewSource(3)), 1, 3, 8, 8)
	full, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	// Cut at a legal point (layer 8 output: after the projection add's ReLU).
	cuts, err := m.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range cuts {
		if cut == len(m.Layers)-1 {
			continue
		}
		act, err := net.ForwardRange(x, 0, cut+1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := net.ForwardFrom(act, cut+1)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i := range full.Data {
			if got.Data[i] != full.Data[i] {
				t.Fatalf("cut %d: split result differs", cut)
			}
		}
	}
}
