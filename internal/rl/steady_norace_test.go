//go:build !race

package rl

import (
	"math/rand"
	"testing"
)

// Controller shapes of the search: 18 features per layer, 24 hidden units
// per direction, a 12-layer block, 7 compression techniques.
const (
	steadyIn, steadyHidden, steadyLen, steadyActions = 18, 24, 12, 7
)

func steadySeq(rng *rand.Rand) [][]float64 {
	seq := make([][]float64, steadyLen)
	for i := range seq {
		seq[i] = make([]float64, steadyIn)
		for j := range seq[i] {
			seq[i][j] = rng.Float64()
		}
	}
	return seq
}

func steadyPolicies(tb testing.TB) (*PartitionPolicy, *CompressionPolicy, [][]float64) {
	rng := rand.New(rand.NewSource(21))
	pp, err := NewPartitionPolicy(steadyIn, steadyHidden, 0.01, rng)
	if err != nil {
		tb.Fatal(err)
	}
	cp, err := NewCompressionPolicy(steadyIn, steadyHidden, steadyActions, 0.01, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return pp, cp, steadySeq(rng)
}

// partitionStep is one partition decision and its update: sample, credit
// through the sampling pass, apply.
func partitionStep(tb testing.TB, pp *PartitionPolicy, seq [][]float64, rng *rand.Rand) {
	a, pass, err := pp.Sample(seq, nil, rng)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pp.AccumulatePass(pass, nil, a, 0.5); err != nil {
		tb.Fatal(err)
	}
	pp.Step()
}

// compressionStep is the same for the compression controller.
func compressionStep(tb testing.TB, cp *CompressionPolicy, seq [][]float64, rng *rand.Rand) {
	actions, pass, err := cp.SampleAll(seq, nil, rng)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cp.AccumulatePass(pass, nil, actions, -0.25); err != nil {
		tb.Fatal(err)
	}
	cp.Step()
}

// A warm controller's decision-and-update cycle allocates what it hands the
// caller and nothing per timestep: the partition cycle its Pass, the
// compression cycle its Pass and the action slice. The encoder states,
// gates, logits and every backward buffer come from the controller's slab,
// which Step rewinds, so the slab never grows either. (The race detector's
// runtime allocates on its own, so this only asserts without it.)
func TestControllerStepAllocations(t *testing.T) {
	pp, cp, seq := steadyPolicies(t)
	rng := rand.New(rand.NewSource(22))
	for _, c := range []struct {
		name string
		max  float64
		mem  *slab
		step func()
	}{
		{"partition", 1, &pp.mem, func() { partitionStep(t, pp, seq, rng) }},
		{"compression", 2, &cp.mem, func() { compressionStep(t, cp, seq, rng) }},
	} {
		for i := 0; i < 3; i++ {
			c.step() // the first cycles size the slab
		}
		gen := c.mem.gen
		if got := testing.AllocsPerRun(50, c.step); got > c.max {
			t.Errorf("%s: %v allocations per Sample→AccumulatePass→Step, want ≤ %v", c.name, got, c.max)
		}
		if c.mem.gen != gen {
			t.Errorf("%s: the slab grew %d times over warm cycles", c.name, c.mem.gen-gen)
		}
	}
}

// BenchmarkBiLSTMStep times one controller decision and update at the
// search's shapes.
func BenchmarkBiLSTMStep(b *testing.B) {
	pp, cp, seq := steadyPolicies(b)
	rng := rand.New(rand.NewSource(23))
	b.Run("partition", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			partitionStep(b, pp, seq, rng)
		}
	})
	b.Run("compression", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			compressionStep(b, cp, seq, rng)
		}
	})
}
