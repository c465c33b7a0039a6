package emulator

import (
	"fmt"

	"cadmc/internal/accuracy"
	"cadmc/internal/core"
	"cadmc/internal/latency"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/surgery"
)

// ScenarioSpec names one evaluation row of Tables III–V: a base model, an
// edge device, and a network scenario.
type ScenarioSpec struct {
	ModelName  string `json:"model"`
	DeviceName string `json:"device"`
	EnvName    string `json:"environment"`
	TraceSeed  int64  `json:"traceSeed"`
}

// String renders the row label.
func (s ScenarioSpec) String() string {
	return fmt.Sprintf("%s/%s/%s", s.ModelName, s.DeviceName, s.EnvName)
}

// PaperScenarios returns the 14 scenario rows of Tables III–V: ten VGG11
// rows (seven on the phone, three on the TX2) and four AlexNet rows.
func PaperScenarios() []ScenarioSpec {
	phoneVGG := []string{
		"4G (weak) indoor", "4G indoor static", "4G indoor slow", "4G outdoor quick",
		"WiFi (weak) indoor", "WiFi (weak) outdoor", "WiFi outdoor slow",
	}
	tx2VGG := []string{"4G (weak) indoor", "4G indoor static", "WiFi (weak) indoor"}
	phoneAlex := []string{
		"4G indoor static", "WiFi (weak) indoor", "WiFi (weak) outdoor", "WiFi outdoor slow",
	}
	specs := make([]ScenarioSpec, 0, 14)
	seed := int64(100)
	for _, env := range phoneVGG {
		specs = append(specs, ScenarioSpec{ModelName: "VGG11", DeviceName: "Phone", EnvName: env, TraceSeed: seed})
		seed++
	}
	for _, env := range tx2VGG {
		specs = append(specs, ScenarioSpec{ModelName: "VGG11", DeviceName: "TX2", EnvName: env, TraceSeed: seed})
		seed++
	}
	for _, env := range phoneAlex {
		specs = append(specs, ScenarioSpec{ModelName: "AlexNet", DeviceName: "Phone", EnvName: env, TraceSeed: seed})
		seed++
	}
	return specs
}

// TrainOptions sizes the offline search.
type TrainOptions struct {
	// TreeEpisodes and BranchEpisodes are the search budgets.
	TreeEpisodes   int
	BranchEpisodes int
	// Blocks is the paper's N (default 3); Classes is K (default 2).
	Blocks  int
	Classes int
	// TraceMS is the generated trace length (default 5 minutes).
	TraceMS float64
	// Seed drives the search.
	Seed int64
}

// DefaultTrainOptions returns the evaluation-harness budgets.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		TreeEpisodes:   120,
		BranchEpisodes: 120,
		Blocks:         3,
		Classes:        2,
		TraceMS:        300_000,
		Seed:           1,
	}
}

// TrainedScenario bundles one scenario's offline artifacts and training
// rewards (the Table III row).
type TrainedScenario struct {
	Spec     ScenarioSpec
	Options  TrainOptions
	Problem  *core.Problem
	Trace    *network.Trace
	Classes  []float64
	Tree     *core.ModelTree
	Branches []*core.BranchResult
	// SurgeryReward, BranchReward and TreeReward are the offline training
	// rewards: the expected Eq. 7 reward over the scenario's bandwidth
	// classes for each method (Table III).
	SurgeryReward float64
	BranchReward  float64
	TreeReward    float64
	// BestTreeReward is the highest single-branch reward found (the Fig. 7
	// curve's plateau).
	BestTreeReward float64
}

// deviceFor maps a spec device name to its profile.
func deviceFor(name string) (latency.Device, error) {
	switch name {
	case "Phone":
		return latency.Phone(), nil
	case "TX2":
		return latency.TX2(), nil
	default:
		return latency.Device{}, fmt.Errorf("emulator: unknown device %q", name)
	}
}

// NewProblem builds the decision problem for one scenario — the zoo model
// sliced into blocks, the device profile, and a transfer model whose
// propagation term is the radio technology's RTT (Eq. 6's f(S|W) intercept
// differs between 4G and WiFi scenarios) — and the scenario's bandwidth
// trace, traceMS long from spec.TraceSeed. Train, Load and the report's
// figures all price their scenarios through it.
func NewProblem(spec ScenarioSpec, blocks int, traceMS float64) (*core.Problem, *network.Trace, error) {
	dev, err := deviceFor(spec.DeviceName)
	if err != nil {
		return nil, nil, err
	}
	base, err := nn.Zoo(spec.ModelName, nn.CIFARInput, nn.CIFARClasses)
	if err != nil {
		return nil, nil, err
	}
	env, err := network.ByName(spec.EnvName)
	if err != nil {
		return nil, nil, err
	}
	transfer := latency.DefaultTransferModel()
	if env.RTTMS > 0 {
		transfer.RTTMS = env.RTTMS
	}
	est, err := latency.NewEstimator(dev, latency.CloudServer(), transfer)
	if err != nil {
		return nil, nil, err
	}
	p, err := core.NewProblem(base, est, accuracy.New(), blocks)
	if err != nil {
		return nil, nil, err
	}
	trace, err := network.Generate(env, spec.TraceSeed, traceMS)
	if err != nil {
		return nil, nil, err
	}
	return p, trace, nil
}

// Train runs the full offline phase for one scenario: generate the trace,
// extract the K bandwidth classes, search per-class optimal branches and the
// model tree, and compute the Table III training rewards.
func Train(spec ScenarioSpec, opts TrainOptions) (*TrainedScenario, error) {
	if opts.Blocks <= 0 || opts.Classes <= 0 {
		return nil, fmt.Errorf("emulator: blocks/classes must be positive: %+v", opts)
	}
	p, trace, err := NewProblem(spec, opts.Blocks, opts.TraceMS)
	if err != nil {
		return nil, err
	}
	classes, err := trace.Classes(opts.Classes)
	if err != nil {
		return nil, err
	}
	tcfg := core.DefaultTreeConfig(classes)
	tcfg.Episodes = opts.TreeEpisodes
	tcfg.BranchBudget = opts.BranchEpisodes
	tcfg.Seed = opts.Seed
	tcfg.RL.Seed = opts.Seed
	tres, err := core.OptimalTree(p, tcfg)
	if err != nil {
		return nil, err
	}
	ts := &TrainedScenario{
		Spec:           spec,
		Options:        opts,
		Problem:        p,
		Trace:          trace,
		Classes:        classes,
		Tree:           tres.Tree,
		Branches:       tres.BranchResults,
		BestTreeReward: tres.BestBranchReward,
	}
	// Table III rewards: expectation over the bandwidth classes.
	for k, w := range classes {
		sres, err := surgery.Partition(p.Base, p.Est, w)
		if err != nil {
			return nil, err
		}
		acc, err := p.Oracle.Evaluate(p.Base, false)
		if err != nil {
			return nil, err
		}
		ts.SurgeryReward += p.Reward.Reward(acc, sres.Latency.TotalMS())
		ts.BranchReward += tres.BranchResults[k].Metrics.Reward
	}
	n := float64(len(classes))
	ts.SurgeryReward /= n
	ts.BranchReward /= n
	// The tree's expected reward under uniform class transitions is exactly
	// the backward-estimated root reward.
	ts.TreeReward = tres.Tree.Root.Reward
	return ts, nil
}

// Run replays the trained scenario in the given mode, returning the
// surgery/branch/tree results (a Table IV or Table V row).
func (ts *TrainedScenario) Run(cfg Config) ([]Result, error) {
	return RunAll(ts.Problem, ts.Tree, ts.Branches, ts.Trace, cfg)
}
