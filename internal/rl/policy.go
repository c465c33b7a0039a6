package rl

import (
	"errors"
	"fmt"
	"math/rand"
)

// Pass is one controller forward: the encoder states, the BiLSTM cache and
// the logits. Sampling returns it and the policy gradient backpropagates
// through it, so a sampled decision is encoded once. It is stamped with its
// controller's optimiser step and expires at the next Step.
type Pass struct {
	opt    *Adam
	step   int
	hs     [][]float64
	cache  *BiCache
	logits [][]float64 // partition: one row of L+2; compression: one row per timestep
}

var errStalePass = errors.New("rl: pass is from another controller or from before its last Step")

// PartitionPolicy is the paper's partition search controller (Fig. 6, upper):
// a bidirectional LSTM over the layer hyper-parameter sequence with a softmax
// over L+2 choices — cut after layer t (0 ≤ t < L), index L meaning no
// partition, or index L+1 meaning offload before the first layer (the whole
// sequence runs on the cloud). The variable sequence length is handled with a
// per-timestep scalar score head plus end- and begin-of-sequence score heads
// for the two special actions.
type PartitionPolicy struct {
	enc        *BiLSTM
	score      *Linear
	endScore   *Linear
	beginScore *Linear
	opt        *Adam
}

// NewPartitionPolicy builds the controller.
func NewPartitionPolicy(inDim, hidden int, lr float64, rng *rand.Rand) (*PartitionPolicy, error) {
	enc, err := NewBiLSTM(inDim, hidden, rng)
	if err != nil {
		return nil, err
	}
	score, err := NewLinear(enc.OutDim(), 1, rng)
	if err != nil {
		return nil, err
	}
	endScore, err := NewLinear(enc.OutDim(), 1, rng)
	if err != nil {
		return nil, err
	}
	beginScore, err := NewLinear(enc.OutDim(), 1, rng)
	if err != nil {
		return nil, err
	}
	params := append(enc.Params(), score.Params()...)
	params = append(params, endScore.Params()...)
	params = append(params, beginScore.Params()...)
	opt, err := NewAdam(lr, params)
	if err != nil {
		return nil, err
	}
	return &PartitionPolicy{enc: enc, score: score, endScore: endScore, beginScore: beginScore, opt: opt}, nil
}

// forward is the controller's one forward: the encoded sequence and its L+2
// partition logits.
func (p *PartitionPolicy) forward(seq [][]float64) (*Pass, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("rl: partition policy needs a non-empty sequence")
	}
	hs, cache, err := p.enc.Forward(seq)
	if err != nil {
		return nil, err
	}
	logits := make([]float64, len(seq)+2)
	for t := range logits {
		head, i := p.head(t, len(seq))
		y, err := head.Forward(hs[i])
		if err != nil {
			return nil, err
		}
		logits[t] = y[0]
	}
	return &Pass{opt: p.opt, step: p.opt.step, hs: hs, cache: cache, logits: [][]float64{logits}}, nil
}

// head returns the score head behind logit t of an n-step sequence and the
// timestep whose state it reads: a cut after each layer, then "no partition"
// off the last state, then "offload everything" off the first.
func (p *PartitionPolicy) head(t, n int) (*Linear, int) {
	switch t {
	case n:
		return p.endScore, n - 1
	case n + 1:
		return p.beginScore, 0
	}
	return p.score, t
}

// Logits returns the L+2 partition logits for the encoded sequence.
func (p *PartitionPolicy) Logits(seq [][]float64) ([]float64, error) {
	pass, err := p.forward(seq)
	if err != nil {
		return nil, err
	}
	return pass.logits[0], nil
}

// Sample draws a partition action from the current policy and returns it
// with the pass that drew it. mask (length L+2) may exclude illegal cut
// points; nil allows everything.
func (p *PartitionPolicy) Sample(seq [][]float64, mask []bool, rng *rand.Rand) (int, *Pass, error) {
	pass, err := p.forward(seq)
	if err != nil {
		return 0, nil, err
	}
	a, err := SampleCategorical(pass.logits[0], mask, rng)
	return a, pass, err
}

// Accumulate adds the policy gradient for one (sequence, action, advantage)
// triple through a fresh forward. Call Step to apply accumulated updates.
func (p *PartitionPolicy) Accumulate(seq [][]float64, mask []bool, action int, advantage float64) error {
	pass, err := p.forward(seq)
	if err != nil {
		return err
	}
	return p.AccumulatePass(pass, mask, action, advantage)
}

// AccumulatePass adds the policy gradient for an action drawn from pass,
// which must come from this policy since its last Step.
func (p *PartitionPolicy) AccumulatePass(pass *Pass, mask []bool, action int, advantage float64) error {
	if pass == nil || pass.opt != p.opt || pass.step != p.opt.step {
		return errStalePass
	}
	n := len(pass.hs)
	if action < 0 || action > n+1 {
		return fmt.Errorf("rl: partition action %d out of range [0,%d]", action, n+1)
	}
	dH := make([][]float64, n)
	for t, g := range PolicyGradLogits(pass.logits[0], mask, action, advantage) {
		head, i := p.head(t, n)
		dx, err := head.Backward(pass.hs[i], []float64{g})
		if err != nil {
			return err
		}
		if dH[i] == nil {
			dH[i] = dx
			continue
		}
		for k, v := range dx {
			dH[i][k] += v
		}
	}
	return p.enc.Backward(pass.cache, dH)
}

// Step applies the accumulated gradients; every earlier pass expires.
func (p *PartitionPolicy) Step() { p.opt.Step() }

// CompressionPolicy is the paper's compression search controller (Fig. 6,
// lower): a bidirectional LSTM whose per-timestep hidden state feeds a
// softmax over the technique set, emitting one action per layer.
type CompressionPolicy struct {
	enc  *BiLSTM
	head *Linear
	opt  *Adam
	// Actions is the size of the technique action space.
	Actions int
}

// NewCompressionPolicy builds the controller with the given action count.
func NewCompressionPolicy(inDim, hidden, actions int, lr float64, rng *rand.Rand) (*CompressionPolicy, error) {
	if actions <= 0 {
		return nil, fmt.Errorf("rl: action count must be positive, got %d", actions)
	}
	enc, err := NewBiLSTM(inDim, hidden, rng)
	if err != nil {
		return nil, err
	}
	head, err := NewLinear(enc.OutDim(), actions, rng)
	if err != nil {
		return nil, err
	}
	opt, err := NewAdam(lr, append(enc.Params(), head.Params()...))
	if err != nil {
		return nil, err
	}
	return &CompressionPolicy{enc: enc, head: head, opt: opt, Actions: actions}, nil
}

// forward is the controller's one forward: the encoded sequence and its
// per-timestep action logits.
func (c *CompressionPolicy) forward(seq [][]float64) (*Pass, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("rl: compression policy needs a non-empty sequence")
	}
	hs, cache, err := c.enc.Forward(seq)
	if err != nil {
		return nil, err
	}
	logits := make([][]float64, len(seq))
	for t, h := range hs {
		if logits[t], err = c.head.Forward(h); err != nil {
			return nil, err
		}
	}
	return &Pass{opt: c.opt, step: c.opt.step, hs: hs, cache: cache, logits: logits}, nil
}

// SampleAll draws one action per timestep and returns them with the pass
// that drew them. masks[t] (length Actions) may exclude techniques
// inapplicable at layer t; a nil masks slice or nil entry allows everything.
func (c *CompressionPolicy) SampleAll(seq [][]float64, masks [][]bool, rng *rand.Rand) ([]int, *Pass, error) {
	pass, err := c.forward(seq)
	if err != nil {
		return nil, nil, err
	}
	actions := make([]int, len(seq))
	for t, logits := range pass.logits {
		var mask []bool
		if masks != nil {
			mask = masks[t]
		}
		if actions[t], err = SampleCategorical(logits, mask, rng); err != nil {
			return nil, nil, err
		}
	}
	return actions, pass, nil
}

// Accumulate adds the policy gradient for one episode step through a fresh
// forward: the joint log-probability of the per-layer actions, scaled by the
// advantage.
func (c *CompressionPolicy) Accumulate(seq [][]float64, masks [][]bool, actions []int, advantage float64) error {
	pass, err := c.forward(seq)
	if err != nil {
		return err
	}
	return c.AccumulatePass(pass, masks, actions, advantage)
}

// AccumulatePass adds the policy gradient for actions drawn from pass, which
// must come from this policy since its last Step.
func (c *CompressionPolicy) AccumulatePass(pass *Pass, masks [][]bool, actions []int, advantage float64) error {
	if pass == nil || pass.opt != c.opt || pass.step != c.opt.step {
		return errStalePass
	}
	if len(actions) != len(pass.hs) {
		return fmt.Errorf("rl: %d actions for %d timesteps", len(actions), len(pass.hs))
	}
	dH := make([][]float64, len(pass.hs))
	for t, h := range pass.hs {
		var mask []bool
		if masks != nil {
			mask = masks[t]
		}
		dx, err := c.head.Backward(h, PolicyGradLogits(pass.logits[t], mask, actions[t], advantage))
		if err != nil {
			return err
		}
		dH[t] = dx
	}
	return c.enc.Backward(pass.cache, dH)
}

// Step applies the accumulated gradients; every earlier pass expires.
func (c *CompressionPolicy) Step() { c.opt.Step() }
