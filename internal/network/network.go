// Package network is the bandwidth-context substrate.
//
// The paper's decision engine consumes the radio environment through two
// interfaces: sampled real-time bandwidth during online composition, and the
// per-scenario bandwidth quantiles that define the K discrete "network
// condition types" of the model tree (Sec. VII: the upper and lower quartile
// stand for 'good' and 'poor'). This package provides both, backed by a
// regime-switching Ornstein–Uhlenbeck generator with outage events that
// reproduces the drastic second-scale fluctuation of the paper's Fig. 1
// traces for every named scenario in Tables III–V.
package network

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Scenario parameterises one named real-life network context.
type Scenario struct {
	// Name as printed in the paper's tables, e.g. "4G indoor static".
	Name string
	// MeanMbps is the long-run bandwidth mean.
	MeanMbps float64
	// Volatility is the OU diffusion on log-bandwidth (per √s).
	Volatility float64
	// Reversion is the OU mean-reversion rate (per s); lower values mean
	// longer excursions.
	Reversion float64
	// OutageRate is the expected number of deep fades per second.
	OutageRate float64
	// OutageDepth multiplies bandwidth during a fade (0 < depth < 1).
	OutageDepth float64
	// OutageMeanMS is the mean fade duration.
	OutageMeanMS float64
	// RegimeSwitchRate is the expected number of regime flips per second
	// (handovers while moving); a flip toggles the OU mean between
	// MeanMbps and MeanMbps·RegimeRatio.
	RegimeSwitchRate float64
	// RegimeRatio is the depressed regime's mean as a fraction of MeanMbps.
	RegimeRatio float64
	// RTTMS is the first-packet round-trip latency of the radio technology:
	// tens of milliseconds on 4G, much less on WiFi. It parameterises the
	// Eq. 6 transfer model's propagation term for this scenario.
	RTTMS float64
}

// Validate checks the scenario parameters.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("network: scenario without a name")
	}
	if s.MeanMbps <= 0 {
		return fmt.Errorf("network: scenario %q has non-positive mean bandwidth", s.Name)
	}
	if s.OutageDepth < 0 || s.OutageDepth >= 1 {
		if s.OutageRate > 0 {
			return fmt.Errorf("network: scenario %q outage depth %v out of (0,1)", s.Name, s.OutageDepth)
		}
	}
	if s.RegimeSwitchRate > 0 && (s.RegimeRatio <= 0 || s.RegimeRatio >= 1) {
		return fmt.Errorf("network: scenario %q regime ratio %v out of (0,1)", s.Name, s.RegimeRatio)
	}
	return nil
}

// Catalog returns the seven named scenarios appearing in Tables III–V.
// Parameters are chosen so that 'weak' variants hover at a few Mbps with
// frequent fades, 'static' variants are stable, and 'quick' (fast outdoor
// movement) variants switch regimes aggressively — the Fig. 1 behaviour.
func Catalog() []Scenario {
	return []Scenario{
		{
			Name: "4G (weak) indoor", MeanMbps: 1.2, RTTMS: 28,
			Volatility: 0.9, Reversion: 0.8,
			OutageRate: 0.15, OutageDepth: 0.15, OutageMeanMS: 900,
		},
		{
			Name: "4G indoor static", MeanMbps: 3.0, RTTMS: 20,
			Volatility: 0.25, Reversion: 1.2,
		},
		{
			Name: "4G indoor slow", MeanMbps: 2.2, RTTMS: 24,
			Volatility: 0.55, Reversion: 0.9,
			OutageRate: 0.05, OutageDepth: 0.3, OutageMeanMS: 600,
			RegimeSwitchRate: 0.05, RegimeRatio: 0.5,
		},
		{
			Name: "4G outdoor quick", MeanMbps: 4.5, RTTMS: 26,
			Volatility: 1.1, Reversion: 0.6,
			OutageRate: 0.2, OutageDepth: 0.2, OutageMeanMS: 500,
			RegimeSwitchRate: 0.25, RegimeRatio: 0.35,
		},
		{
			Name: "WiFi (weak) indoor", MeanMbps: 2.0, RTTMS: 14,
			Volatility: 0.8, Reversion: 0.7,
			OutageRate: 0.12, OutageDepth: 0.2, OutageMeanMS: 800,
		},
		{
			Name: "WiFi (weak) outdoor", MeanMbps: 1.5, RTTMS: 18,
			Volatility: 1.0, Reversion: 0.6,
			OutageRate: 0.25, OutageDepth: 0.12, OutageMeanMS: 700,
		},
		{
			Name: "WiFi outdoor slow", MeanMbps: 3.5, RTTMS: 12,
			Volatility: 0.6, Reversion: 0.8,
			OutageRate: 0.08, OutageDepth: 0.3, OutageMeanMS: 600,
			RegimeSwitchRate: 0.08, RegimeRatio: 0.5,
		},
	}
}

// ByName returns the catalog scenario with the given name.
func ByName(name string) (Scenario, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("network: unknown scenario %q", name)
}

// Trace is a sampled bandwidth time series.
type Trace struct {
	// PeriodMS is the sampling period.
	PeriodMS float64
	// Mbps holds one bandwidth sample per period.
	Mbps []float64
	// Scenario is the generating scenario name.
	Scenario string
}

// Generate synthesises a trace of the given duration, deterministically from
// the seed, at 100 ms sampling (the paper inspects "real-time bandwidth" at
// sub-second granularity).
func Generate(s Scenario, seed int64, durationMS float64) (*Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if durationMS <= 0 {
		return nil, fmt.Errorf("network: non-positive duration %v", durationMS)
	}
	const periodMS = 100.0
	n := int(durationMS/periodMS) + 1
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{PeriodMS: periodMS, Mbps: make([]float64, n), Scenario: s.Name}

	dt := periodMS / 1000.0
	logMean := math.Log(s.MeanMbps)
	x := logMean
	depressed := false
	outageLeftMS := 0.0
	for i := 0; i < n; i++ {
		target := logMean
		if depressed {
			target = math.Log(s.MeanMbps * s.RegimeRatio)
		}
		x += s.Reversion*(target-x)*dt + s.Volatility*math.Sqrt(dt)*rng.NormFloat64()
		w := math.Exp(x)
		if outageLeftMS > 0 {
			w *= s.OutageDepth
			outageLeftMS -= periodMS
		} else if s.OutageRate > 0 && rng.Float64() < s.OutageRate*dt {
			outageLeftMS = -s.OutageMeanMS * math.Log(1-rng.Float64())
		}
		if s.RegimeSwitchRate > 0 && rng.Float64() < s.RegimeSwitchRate*dt {
			depressed = !depressed
		}
		if w < 0.01 {
			w = 0.01
		}
		tr.Mbps[i] = w
	}
	return tr, nil
}

// At returns the bandwidth at time tMS. Times beyond the trace wrap around,
// so short traces can drive long emulations.
func (t *Trace) At(tMS float64) float64 {
	if len(t.Mbps) == 0 {
		return 0
	}
	idx := int(tMS / t.PeriodMS)
	if idx < 0 {
		idx = 0
	}
	return t.Mbps[idx%len(t.Mbps)]
}

// DurationMS returns the trace length in milliseconds.
func (t *Trace) DurationMS() float64 {
	return float64(len(t.Mbps)) * t.PeriodMS
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the trace bandwidth.
func (t *Trace) Quantile(q float64) float64 {
	if len(t.Mbps) == 0 {
		return 0
	}
	sorted := make([]float64, len(t.Mbps))
	copy(sorted, t.Mbps)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Classes returns the K representative bandwidth levels of the trace.
// For K = 2 these are the lower and upper quartiles — the paper's 'poor'
// and 'good' network conditions. For general K they are the evenly spaced
// interior quantiles.
func (t *Trace) Classes(k int) ([]float64, error) {
	if k <= 0 {
		return nil, fmt.Errorf("network: class count must be positive, got %d", k)
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		q := (float64(i) + 0.5) / float64(k)
		if k == 2 {
			// Match the paper exactly: lower and upper quartile.
			q = 0.25 + 0.5*float64(i)
		}
		out[i] = t.Quantile(q)
	}
	return out, nil
}

// Classify returns the index of the class level nearest to w (in log space,
// since bandwidth is ratio-scaled).
func Classify(classes []float64, w float64) int {
	if len(classes) == 0 {
		return 0
	}
	if w <= 0 {
		return 0
	}
	best, bestD := 0, math.Inf(1)
	for i, c := range classes {
		d := math.Abs(math.Log(w) - math.Log(c))
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Stats summarises a trace for the Fig. 1 reproduction.
type Stats struct {
	MeanMbps, StdMbps, MinMbps, MaxMbps float64
	// MeanAbsChangePerSec is the mean of |ΔW|/W̄ across one-second windows —
	// the "drastic change within 1 s" metric motivating the paper.
	MeanAbsChangePerSec float64
}

// Summarize computes trace statistics.
func (t *Trace) Summarize() Stats {
	if len(t.Mbps) == 0 {
		return Stats{}
	}
	st := Stats{MinMbps: math.Inf(1), MaxMbps: math.Inf(-1)}
	for _, w := range t.Mbps {
		st.MeanMbps += w
		if w < st.MinMbps {
			st.MinMbps = w
		}
		if w > st.MaxMbps {
			st.MaxMbps = w
		}
	}
	st.MeanMbps /= float64(len(t.Mbps))
	for _, w := range t.Mbps {
		st.StdMbps += (w - st.MeanMbps) * (w - st.MeanMbps)
	}
	st.StdMbps = math.Sqrt(st.StdMbps / float64(len(t.Mbps)))
	step := int(1000 / t.PeriodMS)
	if step < 1 {
		step = 1
	}
	count := 0
	for i := step; i < len(t.Mbps); i += step {
		st.MeanAbsChangePerSec += math.Abs(t.Mbps[i]-t.Mbps[i-step]) / st.MeanMbps
		count++
	}
	if count > 0 {
		st.MeanAbsChangePerSec /= float64(count)
	}
	return st
}
