// Package rl is the reinforcement-learning substrate: an LSTM implemented
// from scratch with full backpropagation through time, a bidirectional
// encoder, linear heads, an Adam optimiser, categorical sampling, and the
// Monte-Carlo policy gradient (REINFORCE) machinery with an
// exponential-moving-average baseline (Sec. VI-D, Eq. 10).
package rl

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable parameter block with its gradient and Adam moments.
type Param struct {
	Val, Grad, M, V []float64
}

// newParam allocates a parameter block of n values initialised by init.
func newParam(n int, initFn func(i int) float64) *Param {
	p := &Param{
		Val:  make([]float64, n),
		Grad: make([]float64, n),
		M:    make([]float64, n),
		V:    make([]float64, n),
	}
	if initFn != nil {
		for i := range p.Val {
			p.Val[i] = initFn(i)
		}
	}
	return p
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Adam is the Adam optimiser over a set of parameter blocks.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// ClipNorm bounds the global gradient norm; 0 disables clipping.
	ClipNorm float64
	params   []*Param
	step     int
}

// NewAdam builds an optimiser over params with the given learning rate.
func NewAdam(lr float64, params []*Param) (*Adam, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("rl: learning rate must be positive, got %v", lr)
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("rl: optimiser needs parameters")
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5, params: params}, nil
}

// Step applies one Adam update and zeroes the gradients.
func (a *Adam) Step() {
	a.step++
	if a.ClipNorm > 0 {
		norm := 0.0
		for _, p := range a.params {
			for _, g := range p.Grad {
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range a.params {
				for i := range p.Grad {
					p.Grad[i] *= scale
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range a.params {
		for i, g := range p.Grad {
			p.M[i] = a.Beta1*p.M[i] + (1-a.Beta1)*g
			p.V[i] = a.Beta2*p.V[i] + (1-a.Beta2)*g*g
			mhat := p.M[i] / bc1
			vhat := p.V[i] / bc2
			p.Val[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// xavier returns an initialiser drawing from U(-lim, lim) with
// lim = sqrt(6/(fanIn+fanOut)).
func xavier(rng *rand.Rand, fanIn, fanOut int) func(int) float64 {
	lim := math.Sqrt(6 / float64(fanIn+fanOut))
	return func(int) float64 { return (rng.Float64()*2 - 1) * lim }
}

// Softmax returns the softmax of logits (numerically stable).
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	copy(out, logits)
	return softmaxInPlace(out)
}

// softmaxInPlace replaces v by its softmax and returns it.
func softmaxInPlace(v []float64) []float64 {
	maxv := math.Inf(-1)
	for _, x := range v {
		if x > maxv {
			maxv = x
		}
	}
	sum := 0.0
	for i, x := range v {
		v[i] = math.Exp(x - maxv)
		sum += v[i]
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// maskInto copies logits into dst with the masked-out entries at −∞ and
// reports whether any entry is allowed. A nil mask allows everything.
func maskInto(dst, logits []float64, mask []bool) bool {
	any := false
	for i, v := range logits {
		if mask != nil && !mask[i] {
			dst[i] = math.Inf(-1)
			continue
		}
		dst[i] = v
		any = true
	}
	return any
}

// SampleCategorical draws an index from the categorical distribution defined
// by logits. Masked-out entries (mask[i] == false) are excluded; if every
// entry is masked it returns an error. A nil mask allows everything.
func SampleCategorical(logits []float64, mask []bool, rng *rand.Rand) (int, error) {
	return sampleCategorical(logits, mask, rng, make([]float64, len(logits)))
}

// sampleCategorical is SampleCategorical over caller-owned scratch of
// len(logits).
func sampleCategorical(logits []float64, mask []bool, rng *rand.Rand, scratch []float64) (int, error) {
	if len(logits) == 0 {
		return 0, fmt.Errorf("rl: empty logits")
	}
	if !maskInto(scratch, logits, mask) {
		return 0, fmt.Errorf("rl: all actions masked")
	}
	probs := softmaxInPlace(scratch)
	r := rng.Float64()
	acc := 0.0
	last := 0
	for i, p := range probs {
		if p == 0 {
			continue
		}
		acc += p
		last = i
		if r < acc {
			return i, nil
		}
	}
	return last, nil
}

// Argmax returns the index of the largest unmasked logit.
func Argmax(logits []float64, mask []bool) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// PolicyGradLogits returns d(-log π(a))·adv / dlogits = (softmax − onehot_a)·adv,
// respecting the mask used at sample time.
func PolicyGradLogits(logits []float64, mask []bool, action int, advantage float64) []float64 {
	return policyGrad(make([]float64, len(logits)), logits, mask, action, advantage)
}

// policyGrad is PolicyGradLogits written into grad (len(logits)).
func policyGrad(grad, logits []float64, mask []bool, action int, advantage float64) []float64 {
	maskInto(grad, logits, mask)
	for i, p := range softmaxInPlace(grad) {
		grad[i] = p * advantage
		if mask != nil && !mask[i] {
			grad[i] = 0
		}
	}
	grad[action] -= advantage
	return grad
}

// Baseline is the exponential moving average of rewards used to reduce the
// variance of the policy-gradient estimate (Eq. 10's b).
type Baseline struct {
	Decay float64
	value float64
	init  bool
}

// NewBaseline builds a baseline with the given decay (e.g. 0.9).
func NewBaseline(decay float64) *Baseline {
	return &Baseline{Decay: decay}
}

// Update folds a new reward into the average and returns the advantage
// (reward − baseline before the update).
func (b *Baseline) Update(reward float64) float64 {
	if !b.init {
		b.value = reward
		b.init = true
		return 0
	}
	adv := reward - b.value
	b.value = b.Decay*b.value + (1-b.Decay)*reward
	return adv
}

// Value returns the current baseline.
func (b *Baseline) Value() float64 { return b.value }
