// Package report regenerates every table and figure of the paper's
// evaluation section, pairing each measured value with the published one.
// It is shared by cmd/tables and the bench harness (bench_test.go).
package report

import (
	"fmt"
	"math/rand"
	"strings"

	"cadmc/internal/core"
	"cadmc/internal/emulator"
	"cadmc/internal/latency"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/surgery"
)

// TableIRow pairs a model's published phone latency with ours.
type TableIRow struct {
	Model      string
	PaperMS    float64
	MeasuredMS float64
}

// TableI reproduces the inference latencies on the Xiaomi MI 6X with input
// 1×224×224×3.
func TableI() ([]TableIRow, error) {
	phone := latency.Phone()
	rows := []TableIRow{
		{Model: "VGG19", PaperMS: 5734.89},
		{Model: "ResNet50", PaperMS: 1103.20},
		{Model: "ResNet101", PaperMS: 2238.79},
		{Model: "ResNet152", PaperMS: 3729.10},
	}
	for i := range rows {
		m, err := nn.Zoo(rows[i].Model, nn.ImageNetInput, 1000)
		if err != nil {
			return nil, err
		}
		rows[i].MeasuredMS, err = latency.ModelMS(m, phone)
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RenderTableI formats the Table I reproduction.
func RenderTableI(rows []TableIRow) string {
	var b strings.Builder
	b.WriteString("Table I — inference latency on the phone, input 1x224x224x3\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %8s\n", "Model", "paper(ms)", "ours(ms)", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12.2f %12.2f %8.2f\n", r.Model, r.PaperMS, r.MeasuredMS, r.MeasuredMS/r.PaperMS)
	}
	return b.String()
}

// Fig1Series summarises one bandwidth trace.
type Fig1Series struct {
	Scenario string
	Stats    network.Stats
	// FirstSamples holds the first minute at 100 ms sampling, for plotting.
	FirstSamples []float64
}

// Fig1 regenerates the two motivating traces of Fig. 1 (4G while moving
// quickly outdoors; weak WiFi indoors) plus the static reference.
func Fig1(seed int64) ([]Fig1Series, error) {
	names := []string{"4G outdoor quick", "WiFi (weak) indoor", "4G indoor static"}
	out := make([]Fig1Series, 0, len(names))
	for _, name := range names {
		sc, err := network.ByName(name)
		if err != nil {
			return nil, err
		}
		tr, err := network.Generate(sc, seed, 300_000)
		if err != nil {
			return nil, err
		}
		n := 600
		if len(tr.Mbps) < n {
			n = len(tr.Mbps)
		}
		out = append(out, Fig1Series{
			Scenario:     name,
			Stats:        tr.Summarize(),
			FirstSamples: append([]float64(nil), tr.Mbps[:n]...),
		})
	}
	return out, nil
}

// RenderFig1 formats the Fig. 1 reproduction.
func RenderFig1(series []Fig1Series) string {
	var b strings.Builder
	b.WriteString("Fig. 1 — real-world network context (bandwidth fluctuation)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s %10s %14s\n",
		"Scenario", "mean Mbps", "std", "min", "max", "Δ/s (rel)")
	for _, s := range series {
		fmt.Fprintf(&b, "%-22s %10.2f %10.2f %10.2f %10.2f %14.3f\n",
			s.Scenario, s.Stats.MeanMbps, s.Stats.StdMbps, s.Stats.MinMbps, s.Stats.MaxMbps,
			s.Stats.MeanAbsChangePerSec)
	}
	return b.String()
}

// Fig5Fit is one fitted latency-model component with its goodness of fit.
type Fig5Fit struct {
	Component string // e.g. "phone conv k=3" or "transfer"
	Slope     float64
	Intercept float64
	R2        float64
}

// Fig5 regenerates the latency-model calibration: per-device MACC-linear
// compute fits (synthetic measurements drawn from the device profile plus
// noise) and the transfer-model fit.
func Fig5(seed int64) ([]Fig5Fit, error) {
	rng := rand.New(rand.NewSource(seed))
	var fits []Fig5Fit
	devices := []latency.Device{latency.Phone(), latency.TX2(), latency.CloudServer()}
	for _, dev := range devices {
		for _, kernel := range []int{1, 3, 5} {
			xs := make([]float64, 0, 60)
			ys := make([]float64, 0, 60)
			for i := 0; i < 60; i++ {
				// Random conv layers at 224-scale, where the linear regime
				// holds (the paper notes GPU deviations at small layers).
				c := 16 << rng.Intn(4)
				hw := 28 << rng.Intn(3)
				m := &nn.Model{
					Name:  "probe",
					Input: nn.Shape{C: c, H: hw, W: hw},
					Layers: []nn.Layer{
						nn.NewConv(c, c*2, kernel, 1, kernel/2),
					},
				}
				maccs, err := m.MACCs()
				if err != nil {
					return nil, err
				}
				ms, err := latency.ModelMS(m, dev)
				if err != nil {
					return nil, err
				}
				noise := 1 + rng.NormFloat64()*0.04
				xs = append(xs, float64(maccs))
				ys = append(ys, ms*noise)
			}
			intercept, slope, r2, err := latency.LinearFit(xs, ys)
			if err != nil {
				return nil, err
			}
			fits = append(fits, Fig5Fit{
				Component: fmt.Sprintf("%s conv k=%d", dev.Name, kernel),
				Slope:     slope * 1e6, // ms/MACC → ns/MACC
				Intercept: intercept,
				R2:        r2,
			})
		}
	}
	// Transfer model fit against noisy synthetic transfers.
	truth := latency.DefaultTransferModel()
	samples := make([]latency.TransferSample, 0, 300)
	for i := 0; i < 300; i++ {
		size := int64(rng.Intn(512*1024)) + 512
		bw := rng.Float64()*10 + 0.3
		samples = append(samples, latency.TransferSample{
			SizeBytes:     size,
			BandwidthMbps: bw,
			MeasuredMS:    truth.MS(size, bw) * (1 + rng.NormFloat64()*0.05),
		})
	}
	fitted, r2, err := latency.FitTransferModel(samples)
	if err != nil {
		return nil, err
	}
	fits = append(fits, Fig5Fit{
		Component: "transfer Tt = f(S|W) + S/W",
		Slope:     1 + fitted.Overhead,
		Intercept: fitted.RTTMS,
		R2:        r2,
	})
	return fits, nil
}

// RenderFig5 formats the latency-model calibration.
func RenderFig5(fits []Fig5Fit) string {
	var b strings.Builder
	b.WriteString("Fig. 5 — latency estimation model fits (paper: 'most of the measured data points fit the model well')\n")
	fmt.Fprintf(&b, "%-38s %14s %12s %8s\n", "Component", "slope", "intercept", "R^2")
	for _, f := range fits {
		fmt.Fprintf(&b, "%-38s %14.4f %12.4f %8.4f\n", f.Component, f.Slope, f.Intercept, f.R2)
	}
	return b.String()
}

// Fig7Curve is one search method's best-so-far reward trajectory.
type Fig7Curve struct {
	Method  string
	Best    float64
	History []float64
}

// Fig7 compares the RL tree search against random and ε-greedy search on the
// paper's setting (VGG11, 4G indoor static, equal episode budgets). Paper
// result: RL 367.70 > ε-greedy 358.90 > random 358.77.
func Fig7(episodes int, seed int64) ([]Fig7Curve, error) {
	p, classes, err := standardProblem("VGG11", "Phone", "4G indoor static", seed)
	if err != nil {
		return nil, err
	}
	eg, err := core.NewEpsilonGreedyStrategy(0.2, seed)
	if err != nil {
		return nil, err
	}
	methods := []struct {
		name  string
		strat core.Strategy
		boost bool
	}{
		{"RL (ours)", nil, true},
		{"random search", core.NewRandomStrategy(seed), false},
		{"eps-greedy search", eg, false},
	}
	out := make([]Fig7Curve, 0, len(methods))
	for _, m := range methods {
		cfg := core.DefaultTreeConfig(classes)
		cfg.Episodes = episodes
		cfg.Strategy = m.strat
		cfg.Boost = m.boost
		cfg.Seed = seed
		cfg.RL.Seed = seed
		res, err := core.OptimalTree(p, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Curve{Method: m.name, Best: res.BestBranchReward, History: res.History})
	}
	return out, nil
}

// RenderFig7 formats the search-method comparison.
func RenderFig7(curves []Fig7Curve) string {
	var b strings.Builder
	b.WriteString("Fig. 7 — search method comparison (VGG11, 4G indoor static)\n")
	b.WriteString("paper: RL 367.70 > eps-greedy 358.90 > random 358.77\n")
	fmt.Fprintf(&b, "%-20s %12s\n", "Method", "best reward")
	for _, c := range curves {
		fmt.Fprintf(&b, "%-20s %12.2f\n", c.Method, c.Best)
	}
	return b.String()
}

// Fig8Row is one strategy's reward in the concrete 4G-indoor-static example.
type Fig8Row struct {
	Strategy string
	Paper    float64
	Measured float64
}

// Fig8 reproduces the concrete searching-process example: dynamic DNN
// surgery vs the optimal branch vs the model tree under 4G indoor static.
func Fig8(seed int64) ([]Fig8Row, error) {
	p, classes, err := standardProblem("VGG11", "Phone", "4G indoor static", seed)
	if err != nil {
		return nil, err
	}
	// Surgery at the median class bandwidth.
	w := (classes[0] + classes[len(classes)-1]) / 2
	sres, err := surgery.Partition(p.Base, p.Est, w)
	if err != nil {
		return nil, err
	}
	baseAcc, err := p.Oracle.Evaluate(p.Base, false)
	if err != nil {
		return nil, err
	}
	surgeryReward := p.Reward.Reward(baseAcc, sres.Latency.TotalMS())

	cfg := core.DefaultTreeConfig(classes)
	cfg.Seed = seed
	cfg.RL.Seed = seed
	tres, err := core.OptimalTree(p, cfg)
	if err != nil {
		return nil, err
	}
	branchBest := 0.0
	for _, br := range tres.BranchResults {
		if br.Metrics.Reward > branchBest {
			branchBest = br.Metrics.Reward
		}
	}
	return []Fig8Row{
		{Strategy: "Dynamic DNN Surgery", Paper: 348.06, Measured: surgeryReward},
		{Strategy: "Optimal Branch", Paper: 349.51, Measured: branchBest},
		{Strategy: "Model Tree", Paper: 354.81, Measured: tres.BestBranchReward},
	}, nil
}

// RenderFig8 formats the concrete example.
func RenderFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Fig. 8 — searching processes by different strategies (VGG11, 4G indoor static)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s\n", "Strategy", "paper", "ours")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %10.2f %10.2f\n", r.Strategy, r.Paper, r.Measured)
	}
	return b.String()
}

// standardProblem builds the (problem, bandwidth classes) pair for one
// model/device/scenario triple through emulator.NewProblem, so the figures
// price a scenario exactly as the emulator harness trains on it.
func standardProblem(model, device, scenarioName string, seed int64) (*core.Problem, []float64, error) {
	spec := emulator.ScenarioSpec{ModelName: model, DeviceName: device, EnvName: scenarioName, TraceSeed: seed}
	p, trace, err := emulator.NewProblem(spec, 3, 300_000)
	if err != nil {
		return nil, nil, err
	}
	classes, err := trace.Classes(2)
	if err != nil {
		return nil, nil, err
	}
	return p, classes, nil
}

// TableIIRow documents one compression technique's structural contract.
type TableIIRow struct {
	Name         string
	Replaced     string
	New          string
	AppliedTypes string
}

// TableII returns the technique catalogue (definitional; the structural
// contracts are asserted by internal/compress's tests).
func TableII() []TableIIRow {
	return []TableIIRow{
		{"F1 (SVD)", "m x n weight matrix", "m x k and k x n (k << m) matrices", "FC layer"},
		{"F2 (KSVD)", "m x n weight matrix", "as F1 with sparse matrices", "FC layer"},
		{"F3 (Global Average Pooling)", "FC layers", "a global average pooling layer", "FC layer"},
		{"C1 (MobileNet)", "Conv layer", "3x3 depth-wise + 1x1 point-wise conv", "some Conv layer"},
		{"C2 (MobileNetV2)", "Conv layer", "as C1 with extra point-wise conv and residual links", "some Conv layer"},
		{"C3 (SqueezeNet)", "Conv layer", "a Fire layer", "some Conv layer"},
		{"W1 (Filter Pruning)", "Conv layer", "insignificant filters pruned", "Conv layer"},
	}
}

// RenderTableII formats the technique catalogue.
func RenderTableII(rows []TableIIRow) string {
	var b strings.Builder
	b.WriteString("Table II — compression techniques\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %-24s -> %-52s [%s]\n", r.Name, r.Replaced, r.New, r.AppliedTypes)
	}
	return b.String()
}
