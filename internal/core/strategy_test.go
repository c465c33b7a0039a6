package core

import (
	"fmt"
	"math"
	"testing"

	"cadmc/internal/nn"
)

// forwardCounter wraps the RL strategy and counts controller forwards: one
// per Select (the forward that samples the action) plus one per decision
// Observe must encode because no sampler made it. A decision that carries a
// pass reaches Observe with its sequence stripped, so re-encoding it fails
// the search instead of going uncounted.
type forwardCounter struct {
	inner    *RLStrategy
	selects  int
	encodes  int
	observed int
}

func (f *forwardCounter) SelectPartition(site string, seq [][]float64, mask []bool) (Decision, error) {
	f.selects++
	d, err := f.inner.SelectPartition(site, seq, mask)
	if err == nil && d.pass == nil {
		err = fmt.Errorf("sampled partition decision at %s carries no pass", site)
	}
	return d, err
}

func (f *forwardCounter) SelectCompression(site string, seq [][]float64, masks [][]bool) (Decision, error) {
	f.selects++
	d, err := f.inner.SelectCompression(site, seq, masks)
	if err == nil && d.pass == nil {
		err = fmt.Errorf("sampled compression decision at %s carries no pass", site)
	}
	return d, err
}

func (f *forwardCounter) Observe(decisions []Decision, reward float64) error {
	stripped := make([]Decision, len(decisions))
	for i, d := range decisions {
		f.observed++
		if d.pass == nil {
			f.encodes++
		} else {
			d.Seq = nil
		}
		stripped[i] = d
	}
	return f.inner.Observe(stripped, reward)
}

func (f *forwardCounter) Commit() { f.inner.Commit() }

func newForwardCounter(t *testing.T, p *Problem) *forwardCounter {
	t.Helper()
	s, err := NewRLStrategy(len(p.Techniques), DefaultRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A baseline far below every reward keeps each advantage nonzero, so
	// every observed decision really is credited.
	s.Baseline.Update(-1e6)
	return &forwardCounter{inner: s}
}

// Each decision of one Alg. 1 episode and one Alg. 3 episode is encoded once
// per parameter version: sampled decisions by the forward that sampled them,
// the rest (the prescan seed, fair-chance forced cuts) once at Observe.
func TestOneForwardPerDecision(t *testing.T) {
	p := newTestProblem(t, nn.AlexNet(nn.CIFARInput, nn.CIFARClasses))

	br := newForwardCounter(t, p)
	if _, err := OptimalBranch(p, 4, BranchConfig{Episodes: 1, Strategy: br}); err != nil {
		t.Fatal(err)
	}
	if br.encodes != 1 {
		t.Fatalf("branch episode encoded %d unsampled decisions at Observe, want 1 (the prescan seed)", br.encodes)
	}
	if br.selects+br.encodes != br.observed || br.selects == 0 {
		t.Fatalf("branch episode: %d sampling forwards + %d Observe encodes for %d decisions",
			br.selects, br.encodes, br.observed)
	}

	forced := 0
	for seed := int64(1); seed <= 8; seed++ {
		tr := newForwardCounter(t, p)
		cfg := DefaultTreeConfig([]float64{1.5, 6})
		cfg.Episodes, cfg.Boost, cfg.Alpha0, cfg.Seed, cfg.Strategy = 1, false, 1, seed, tr
		if _, err := OptimalTree(p, cfg); err != nil {
			t.Fatal(err)
		}
		if tr.selects+tr.encodes != tr.observed || tr.observed == 0 {
			t.Fatalf("seed %d tree episode: %d sampling forwards + %d Observe encodes for %d decisions",
				seed, tr.selects, tr.encodes, tr.observed)
		}
		forced += tr.encodes
	}
	if forced == 0 {
		t.Fatal("no fair-chance forced cut in 8 tree episodes: the unsampled path went untested")
	}
}

// A decision sampled before a Step is refused by Observe after it, never
// silently re-encoded with the new parameters.
func TestObserveRefusesPassFromBeforeStep(t *testing.T) {
	p := newTestProblem(t, nn.AlexNet(nn.CIFARInput, nn.CIFARClasses))
	s := newForwardCounter(t, p).inner
	seq := encodeLayers(p.Base.Layers, 4)
	old, err := s.SelectPartition("p", seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.SelectPartition("p", seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]Decision{fresh}, 100); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	if err := s.Observe([]Decision{old}, 100); err == nil {
		t.Fatal("Observe credited a pass made before the last Step")
	}
}

// On a constant-reward stream the advantage is zero, so REINFORCE with its
// baseline leaves both controllers bit-identical; crediting the raw reward
// would move them.
func TestRLStrategyConstantRewardMovesNothing(t *testing.T) {
	p := newTestProblem(t, nn.AlexNet(nn.CIFARInput, nn.CIFARClasses))
	s, err := NewRLStrategy(len(p.Techniques), DefaultRLConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := encodeLayers(p.Base.Layers, 4)
	masks := p.compressionMasks(p.Base)
	before, err := s.Partition.Logits(seq)
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 5; ep++ {
		pd, err := s.SelectPartition("p", seq, nil)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := s.SelectCompression("c", seq, masks)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe([]Decision{pd, cd}, 250); err != nil {
			t.Fatal(err)
		}
		s.Commit()
	}
	after, err := s.Partition.Logits(seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("logit %d moved %v → %v on a constant reward", i, before[i], after[i])
		}
	}
}
