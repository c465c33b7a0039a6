package rl

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSoftmaxProperties(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				xs[i] = 0
			}
			// Clamp to a sane range; softmax of wild magnitudes saturates.
			if xs[i] > 500 {
				xs[i] = 500
			}
			if xs[i] < -500 {
				xs[i] = -500
			}
		}
		p := Softmax(xs)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCategoricalRespectsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := []float64{10, 0, 0}
	mask := []bool{false, true, true}
	for i := 0; i < 100; i++ {
		a, err := SampleCategorical(logits, mask, rng)
		if err != nil {
			t.Fatal(err)
		}
		if a == 0 {
			t.Fatal("sampled a masked action")
		}
	}
	if _, err := SampleCategorical(logits, []bool{false, false, false}, rng); err == nil {
		t.Fatal("expected all-masked error")
	}
	if _, err := SampleCategorical(nil, nil, rng); err == nil {
		t.Fatal("expected empty-logits error")
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	logits := []float64{math.Log(8), math.Log(1), math.Log(1)}
	counts := make([]int, 3)
	const n = 5000
	for i := 0; i < n; i++ {
		a, err := SampleCategorical(logits, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[a]++
	}
	frac := float64(counts[0]) / n
	if frac < 0.74 || frac > 0.86 {
		t.Fatalf("action 0 sampled %.3f of the time, want ≈0.8", frac)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}, nil) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{1, 5, 3}, []bool{true, false, true}) != 2 {
		t.Fatal("masked argmax wrong")
	}
}

func TestPolicyGradLogitsDirection(t *testing.T) {
	logits := []float64{0, 0, 0}
	grad := PolicyGradLogits(logits, nil, 1, 2.0)
	// Positive advantage: minimising the loss must push the chosen action's
	// logit up, i.e. its gradient must be negative.
	if grad[1] >= 0 {
		t.Fatalf("chosen-action gradient %v, want negative", grad[1])
	}
	if grad[0] <= 0 || grad[2] <= 0 {
		t.Fatal("other actions must be pushed down")
	}
	sum := grad[0] + grad[1] + grad[2]
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("policy gradient must sum to zero, got %v", sum)
	}
	// Masked entries receive no gradient.
	gm := PolicyGradLogits(logits, []bool{true, true, false}, 0, 1)
	if gm[2] != 0 {
		t.Fatal("masked entry must have zero gradient")
	}
}

func TestBaseline(t *testing.T) {
	b := NewBaseline(0.9)
	if adv := b.Update(10); adv != 0 {
		t.Fatalf("first update advantage %v, want 0 (initialisation)", adv)
	}
	adv := b.Update(20)
	if adv != 10 {
		t.Fatalf("advantage = %v, want 10", adv)
	}
	if b.Value() <= 10 || b.Value() >= 20 {
		t.Fatalf("baseline %v must move toward the new reward", b.Value())
	}
}

// On a reward stream that settles at a constant, the advantage keeps its sign
// and shrinks geometrically toward zero: REINFORCE subtracts its baseline.
func TestBaselineAdvantageShrinksOnConstantStream(t *testing.T) {
	b := NewBaseline(0.85)
	b.Update(0)
	prev := math.Inf(1)
	for i := 0; i < 200; i++ {
		adv := b.Update(100)
		if adv < 0 || adv >= prev {
			t.Fatalf("step %d: advantage %v after %v, want positive and shrinking", i, adv, prev)
		}
		prev = adv
	}
	if prev > 1e-9 {
		t.Fatalf("advantage %v on a constant stream, want → 0", prev)
	}
}

// gradBits snapshots every parameter gradient of an optimiser bit for bit
// and zeroes them.
func gradBits(opt *Adam) [][]uint64 {
	out := make([][]uint64, len(opt.params))
	for i, p := range opt.params {
		out[i] = make([]uint64, len(p.Grad))
		for j, g := range p.Grad {
			out[i][j] = math.Float64bits(g)
		}
		p.ZeroGrad()
	}
	return out
}

func equalBits(a, b [][]uint64) bool {
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return len(a) == len(b)
}

// Crediting an action through the pass that sampled it yields every
// parameter gradient bit-identical to a fresh-forward Accumulate.
func TestAccumulatePassMatchesFreshForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := make([][]float64, 5)
	for i := range seq {
		seq[i] = []float64{rng.Float64(), rng.NormFloat64(), float64(i), 1}
	}
	mask := []bool{true, false, true, true, true, true, true}
	masks := [][]bool{nil, {true, false, true}, nil, {false, true, true}, nil}
	pp, err := NewPartitionPolicy(4, 6, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCompressionPolicy(4, 6, 3, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		adv := 0.7 - 0.6*float64(round)
		a, pass, err := pp.Sample(seq, mask, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := pp.AccumulatePass(pass, mask, a, adv); err != nil {
			t.Fatal(err)
		}
		viaPass := gradBits(pp.opt)
		if equalBits(viaPass, gradBits(pp.opt)) {
			t.Fatalf("round %d: sampled pass produced no gradient", round)
		}
		if err := pp.Accumulate(seq, mask, a, adv); err != nil {
			t.Fatal(err)
		}
		if !equalBits(viaPass, gradBits(pp.opt)) {
			t.Fatalf("round %d: partition gradients through the sampled pass differ from a fresh forward", round)
		}
		actions, cpass, err := cp.SampleAll(seq, masks, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.AccumulatePass(cpass, masks, actions, adv); err != nil {
			t.Fatal(err)
		}
		viaPass = gradBits(cp.opt)
		if err := cp.Accumulate(seq, masks, actions, adv); err != nil {
			t.Fatal(err)
		}
		if !equalBits(viaPass, gradBits(cp.opt)) {
			t.Fatalf("round %d: compression gradients through the sampled pass differ from a fresh forward", round)
		}
		// Move the parameters so the next round compares at new values.
		if err := pp.Accumulate(seq, mask, a, adv); err != nil {
			t.Fatal(err)
		}
		pp.Step()
		if err := cp.Accumulate(seq, masks, actions, adv); err != nil {
			t.Fatal(err)
		}
		cp.Step()
	}
}

// A pass expires at its controller's next Step and is never credited to
// another controller.
func TestStalePassRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	seq := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	pp, err := NewPartitionPolicy(2, 4, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewPartitionPolicy(2, 4, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCompressionPolicy(2, 4, 3, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, pass, err := pp.Sample(seq, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	actions, cpass, err := cp.SampleAll(seq, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AccumulatePass(pass, nil, a, 1); !errors.Is(err, errStalePass) {
		t.Fatal("a pass was credited to a controller that did not make it")
	}
	if err := pp.AccumulatePass(nil, nil, a, 1); !errors.Is(err, errStalePass) {
		t.Fatal("a nil pass was credited")
	}
	pp.Step()
	cp.Step()
	if err := pp.AccumulatePass(pass, nil, a, 1); !errors.Is(err, errStalePass) {
		t.Fatal("a partition pass was credited after a later Step")
	}
	if err := cp.AccumulatePass(cpass, nil, actions, 1); !errors.Is(err, errStalePass) {
		t.Fatal("a compression pass was credited after a later Step")
	}
	// A pass made after the Step is live.
	a, pass, err = pp.Sample(seq, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.AccumulatePass(pass, nil, a, 1); err != nil {
		t.Fatal(err)
	}
}

// The partition policy must learn to prefer a rewarded cut position.
func TestPartitionPolicyLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pol, err := NewPartitionPolicy(4, 8, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
	const target = 2
	baseline := NewBaseline(0.8)
	for ep := 0; ep < 150; ep++ {
		a, pass, err := pol.Sample(seq, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		reward := 0.0
		if a == target {
			reward = 1.0
		}
		adv := baseline.Update(reward)
		if err := pol.AccumulatePass(pass, nil, a, adv); err != nil {
			t.Fatal(err)
		}
		pol.Step()
	}
	logits, err := pol.Logits(seq)
	if err != nil {
		t.Fatal(err)
	}
	if Argmax(logits, nil) != target {
		t.Fatalf("policy did not learn target cut: logits %v", logits)
	}
}

// The compression policy must learn per-timestep preferences.
func TestCompressionPolicyLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pol, err := NewCompressionPolicy(3, 8, 3, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	seq := [][]float64{{1, 0, 0}, {0, 1, 0}}
	// Reward action t at timestep t.
	baseline := NewBaseline(0.8)
	for ep := 0; ep < 200; ep++ {
		actions, pass, err := pol.SampleAll(seq, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		reward := 0.0
		for tt, a := range actions {
			if a == tt {
				reward += 0.5
			}
		}
		adv := baseline.Update(reward)
		if err := pol.AccumulatePass(pass, nil, actions, adv); err != nil {
			t.Fatal(err)
		}
		pol.Step()
	}
	pass, err := pol.forward(seq)
	if err != nil {
		t.Fatal(err)
	}
	for tt, logits := range pass.logits {
		if Argmax(logits, nil) != tt {
			t.Fatalf("timestep %d did not learn its action: %v", tt, logits)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pol, err := NewPartitionPolicy(2, 4, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pol.Logits(nil); err == nil {
		t.Fatal("expected empty-sequence error")
	}
	if err := pol.Accumulate([][]float64{{1, 2}}, nil, 5, 1); err == nil {
		t.Fatal("expected action-range error")
	}
	cp, err := NewCompressionPolicy(2, 4, 3, 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.forward(nil); err == nil {
		t.Fatal("expected empty-sequence error")
	}
	if err := cp.Accumulate([][]float64{{1, 2}}, nil, []int{1, 2}, 1); err == nil {
		t.Fatal("expected action-count error")
	}
	if _, err := NewCompressionPolicy(2, 4, 0, 0.01, rng); err == nil {
		t.Fatal("expected action-space error")
	}
}

// Property: masked sampling never returns a masked index.
func TestSampleMaskProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		logits := make([]float64, n)
		mask := make([]bool, n)
		anyAllowed := false
		for i := range logits {
			logits[i] = r.NormFloat64() * 3
			mask[i] = r.Float64() < 0.6
			anyAllowed = anyAllowed || mask[i]
		}
		if !anyAllowed {
			mask[0] = true
		}
		a, err := SampleCategorical(logits, mask, rng)
		if err != nil {
			return false
		}
		return mask[a]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
