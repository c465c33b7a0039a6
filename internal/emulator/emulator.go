// Package emulator replays bandwidth traces against the three deployment
// policies — dynamic DNN surgery, the optimal branch, and the context-aware
// model tree — on a simulated clock, reproducing the paper's emulation
// (Table IV) and field tests (Table V).
//
// Emulation mode: decisions read the trace exactly (oracle monitor) and the
// realised latency equals the latency model's estimate. Field mode injects
// the two error sources the paper blames for its emulation→field gap: the
// latency model's inaccuracy (a multiplicative bias plus log-normal noise on
// realised latency) and coarse bandwidth estimation (a probing monitor with
// staleness and measurement noise).
package emulator

import (
	"fmt"
	"math"
	"math/rand"

	"cadmc/internal/core"
	"cadmc/internal/latency"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/surgery"
)

// Mode selects emulation or field semantics.
type Mode int

// Modes.
const (
	ModeEmulation Mode = iota + 1
	ModeField
)

// String renders the mode name.
func (m Mode) String() string {
	switch m {
	case ModeEmulation:
		return "emulation"
	case ModeField:
		return "field"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterises a run.
type Config struct {
	Mode Mode
	// Inferences is the number of back-to-back inference requests replayed
	// along the trace.
	Inferences int
	// GapMS is the idle time between requests (a continuous-vision app
	// polling frames).
	GapMS float64
	// LatencyBias multiplies realised latency in field mode (model error is
	// systematically optimistic on real devices).
	LatencyBias float64
	// LatencyNoiseStd is the per-inference log-normal deviation of realised
	// latency in field mode.
	LatencyNoiseStd float64
	// ProbeIntervalMS and ProbeNoiseStd configure the field-mode coarse
	// bandwidth monitor.
	ProbeIntervalMS float64
	ProbeNoiseStd   float64
	// Energy is the edge-device energy profile used to report per-policy
	// energy alongside reward/latency/accuracy; the zero value defaults to
	// latency.DefaultPhoneEnergy().
	Energy latency.EnergyModel
	// Seed drives all field-mode noise.
	Seed int64
}

// DefaultConfig returns the harness configuration for the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Mode:       mode,
		Inferences: 120,
		GapMS:      40,
		Seed:       1,
	}
	if mode == ModeField {
		cfg.LatencyBias = 1.5
		cfg.LatencyNoiseStd = 0.22
		cfg.ProbeIntervalMS = 1000
		cfg.ProbeNoiseStd = 0.3
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Mode != ModeEmulation && c.Mode != ModeField {
		return fmt.Errorf("emulator: unknown mode %d", int(c.Mode))
	}
	if c.Inferences <= 0 {
		return fmt.Errorf("emulator: inference count must be positive, got %d", c.Inferences)
	}
	if c.Mode == ModeField {
		if c.LatencyBias < 1 {
			return fmt.Errorf("emulator: field latency bias %v must be ≥1", c.LatencyBias)
		}
		if c.ProbeIntervalMS <= 0 {
			return fmt.Errorf("emulator: field probe interval must be positive")
		}
	}
	return nil
}

// Result aggregates one policy's replay.
type Result struct {
	Policy         string
	MeanReward     float64
	MeanLatencyMS  float64
	MeanAccuracy   float64
	WorstLatencyMS float64
	// MeanEnergyMJ is the edge device's mean energy per inference.
	MeanEnergyMJ float64
}

// RunAll replays surgery, branch and tree policies over the same trace and
// returns their results in that order.
func RunAll(p *core.Problem, tree *core.ModelTree, branches []*core.BranchResult,
	trace *network.Trace, cfg Config) ([]Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tree == nil || len(branches) == 0 {
		return nil, fmt.Errorf("emulator: need a trained tree and branch solutions")
	}
	out := make([]Result, 0, 3)
	for _, pol := range []policy{
		&surgeryPolicy{},
		&branchPolicy{branches: branches, classes: tree.ClassMbps},
		&treePolicy{tree: tree},
	} {
		r, err := run(p, pol, trace, cfg)
		if err != nil {
			return nil, fmt.Errorf("emulator: %s: %w", pol.name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// policy executes one inference starting at t0 and returns its realised
// latency, the accuracy of the model it composed, and the edge energy spent.
type policy interface {
	name() string
	infer(env *environment, t0 float64) (latMS, accPct, energyMJ float64, err error)
}

// environment bundles the shared replay state.
type environment struct {
	p       *core.Problem
	trace   *network.Trace
	monitor network.Monitor
	cfg     Config
	energy  latency.EnergyModel
	rng     *rand.Rand
}

// factor returns the field-mode realised-latency multiplier for one
// inference; 1 in emulation mode.
func (e *environment) factor() float64 {
	if e.cfg.Mode != ModeField {
		return 1
	}
	noise := math.Exp(clamp(e.rng.NormFloat64()*e.cfg.LatencyNoiseStd, -1.2, 1.2))
	return e.cfg.LatencyBias * noise
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func run(p *core.Problem, pol policy, trace *network.Trace, cfg Config) (Result, error) {
	env := &environment{
		p:      p,
		trace:  trace,
		cfg:    cfg,
		energy: cfg.Energy,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if env.energy == (latency.EnergyModel{}) {
		env.energy = latency.DefaultPhoneEnergy()
	}
	switch cfg.Mode {
	case ModeEmulation:
		env.monitor = &network.OracleMonitor{Trace: trace}
	case ModeField:
		mon, err := network.NewCoarseMonitor(trace, cfg.ProbeIntervalMS, cfg.ProbeNoiseStd, cfg.Seed^0x7ace)
		if err != nil {
			return Result{}, err
		}
		env.monitor = mon
	}
	res := Result{Policy: pol.name()}
	t := 0.0
	for i := 0; i < cfg.Inferences; i++ {
		lat, acc, mj, err := pol.infer(env, t)
		if err != nil {
			return Result{}, err
		}
		reward := p.Reward.Reward(acc, lat)
		res.MeanReward += reward
		res.MeanLatencyMS += lat
		res.MeanAccuracy += acc
		res.MeanEnergyMJ += mj
		if lat > res.WorstLatencyMS {
			res.WorstLatencyMS = lat
		}
		t += lat + cfg.GapMS
	}
	n := float64(cfg.Inferences)
	res.MeanReward /= n
	res.MeanLatencyMS /= n
	res.MeanAccuracy /= n
	res.MeanEnergyMJ /= n
	return res, nil
}

// executeStatic realises a fixed plan (model + cut) starting at t0: edge
// compute, then transfer at the bandwidth prevailing when the transfer
// actually starts, then cloud compute. It returns the realised latency and
// the edge energy spent.
func executeStatic(env *environment, m *nn.Model, cut int, t0 float64) (float64, float64, error) {
	f := env.factor()
	rows, err := m.Costs()
	if err != nil {
		return 0, 0, err
	}
	edgeMS, err := latency.RangeMS(m, rows, 0, cut+1, env.p.Est.Edge)
	if err != nil {
		return 0, 0, err
	}
	total := edgeMS * f
	return env.finish(m, rows, cut, f, t0+total, total)
}

// finish realises what follows the edge part of plan m, cut after layer cut
// and priced from its cost-table rows, for the static policies and the tree
// alike. The edge part ended at time t after edgeMS of realised compute; the
// activation then crosses at the bandwidth prevailing at t, scaled by the
// same field factor f as the edge compute, and the suffix runs on the cloud.
// It returns the realised latency and the edge energy spent.
func (env *environment) finish(m *nn.Model, rows []nn.LayerCost, cut int, f, t, edgeMS float64) (float64, float64, error) {
	total := edgeMS
	var transferMS, cloudMS float64
	if cut < len(m.Layers)-1 {
		transferMS = env.p.Est.Transfer.MS(latency.CutBytes(m, rows, cut), env.trace.At(t))
		if math.IsInf(transferMS, 1) {
			transferMS = env.p.Reward.MaxLatMS * 4 // outage: blows the latency budget
		}
		transferMS *= f
		total += transferMS
		var err error
		cloudMS, err = latency.RangeMS(m, rows, cut+1, len(m.Layers), env.p.Est.Cloud)
		if err != nil {
			return 0, 0, err
		}
		total += cloudMS
	}
	eb, err := env.energy.EdgeEnergy(m, rows, cut, transferMS, cloudMS)
	if err != nil {
		return 0, 0, err
	}
	return total, eb.TotalMJ(), nil
}

// surgeryPolicy re-runs dynamic DNN surgery at the start of every inference
// with the monitor's current estimate, then executes the fixed plan.
type surgeryPolicy struct{}

func (*surgeryPolicy) name() string { return "Surgery" }

func (*surgeryPolicy) infer(env *environment, t0 float64) (float64, float64, float64, error) {
	wEst := env.monitor.EstimateMbps(t0)
	res, err := surgery.Partition(env.p.Base, env.p.Est, wEst)
	if err != nil {
		return 0, 0, 0, err
	}
	lat, mj, err := executeStatic(env, env.p.Base, res.Cut, t0)
	if err != nil {
		return 0, 0, 0, err
	}
	acc, err := env.p.Oracle.Evaluate(env.p.Base, false)
	if err != nil {
		return 0, 0, 0, err
	}
	return lat, acc, mj, nil
}

// branchPolicy picks the pre-trained optimal branch for the estimated
// bandwidth class at the start of each inference (a static per-inference
// plan, the Sec. V method).
type branchPolicy struct {
	branches []*core.BranchResult
	classes  []float64
}

func (*branchPolicy) name() string { return "Branch" }

func (b *branchPolicy) infer(env *environment, t0 float64) (float64, float64, float64, error) {
	wEst := env.monitor.EstimateMbps(t0)
	k := network.Classify(b.classes, wEst)
	if k >= len(b.branches) {
		k = len(b.branches) - 1
	}
	br := b.branches[k]
	lat, mj, err := executeStatic(env, br.Candidate.Model, br.Candidate.Cut, t0)
	if err != nil {
		return 0, 0, 0, err
	}
	acc, err := env.p.Oracle.Evaluate(br.Candidate.Model, true)
	if err != nil {
		return 0, 0, 0, err
	}
	return lat, acc, mj, nil
}

// treePolicy composes the DNN block by block at runtime (Alg. 2): each block
// boundary re-reads the monitor and descends the matching fork.
type treePolicy struct {
	tree *core.ModelTree
}

func (*treePolicy) name() string { return "Tree" }

func (tp *treePolicy) infer(env *environment, t0 float64) (float64, float64, float64, error) {
	rt, err := core.NewRuntime(tp.tree)
	if err != nil {
		return 0, 0, 0, err
	}
	f := env.factor()
	t := t0
	in := env.p.Base.Input
	for {
		// Execute this block's edge layers: a model of their own, fed the
		// activation the composed prefix ends with.
		blk := &nn.Model{Name: env.p.Base.Name, Input: in, Layers: rt.Current().EdgeLayers}
		rows, err := blk.Costs()
		if err != nil {
			return 0, 0, 0, err
		}
		blockMS, err := latency.RangeMS(blk, rows, 0, len(rows), env.p.Est.Edge)
		if err != nil {
			return 0, 0, 0, err
		}
		t += blockMS * f
		if len(rows) > 0 {
			in = rows[len(rows)-1].Out
		}
		if rt.Done() {
			break
		}
		wEst := env.monitor.EstimateMbps(t)
		if _, err := rt.Advance(wEst); err != nil {
			return 0, 0, 0, err
		}
	}
	cand, err := rt.Candidate()
	if err != nil {
		return 0, 0, 0, err
	}
	rows, err := cand.Model.Costs()
	if err != nil {
		return 0, 0, 0, err
	}
	lat, mj, err := env.finish(cand.Model, rows, cand.Cut, f, t, t-t0)
	if err != nil {
		return 0, 0, 0, err
	}
	acc, err := env.p.Oracle.Evaluate(cand.Model, true)
	if err != nil {
		return 0, 0, 0, err
	}
	return lat, acc, mj, nil
}
