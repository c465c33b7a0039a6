package latency

import (
	"fmt"

	"cadmc/internal/nn"
)

// EnergyModel estimates the edge device's energy per inference — the third
// resource the paper's introduction names ("the computation time, the
// storage space and the energy consumption on edge devices"). Compute energy
// is MACC-linear like latency; offloading trades compute energy for radio
// transmit energy plus idle power while awaiting the cloud's reply.
type EnergyModel struct {
	// ComputeNJPerMACC is the edge compute energy in nanojoules per MACC.
	ComputeNJPerMACC float64
	// RadioMJPerMB is the radio transmit energy in millijoules per megabyte.
	RadioMJPerMB float64
	// IdleMW is the platform power in milliwatts while waiting for the
	// cloud (radio tail + screen-on baseline attributed to the inference).
	IdleMW float64
	// BaseMJ is the fixed per-inference wake-up cost in millijoules.
	BaseMJ float64
}

// DefaultPhoneEnergy returns a smartphone-class energy profile
// (≈1 nJ/MACC effective CPU energy, LTE-class radio costs).
func DefaultPhoneEnergy() EnergyModel {
	return EnergyModel{
		ComputeNJPerMACC: 1.1,
		RadioMJPerMB:     110,
		IdleMW:           850,
		BaseMJ:           2,
	}
}

// Validate checks the profile.
func (e EnergyModel) Validate() error {
	if e.ComputeNJPerMACC <= 0 || e.RadioMJPerMB < 0 || e.IdleMW < 0 || e.BaseMJ < 0 {
		return fmt.Errorf("latency: invalid energy model %+v", e)
	}
	return nil
}

// EnergyBreakdown itemises one inference's edge-side energy in millijoules.
type EnergyBreakdown struct {
	ComputeMJ float64
	RadioMJ   float64
	IdleMJ    float64
	BaseMJ    float64
}

// TotalMJ sums the parts.
func (b EnergyBreakdown) TotalMJ() float64 {
	return b.ComputeMJ + b.RadioMJ + b.IdleMJ + b.BaseMJ
}

// EdgeEnergy estimates the edge energy of running model m, whose cost-table
// rows (nn.Model.Costs) are rows, cut after layer `cut` (the
// Estimator.EndToEnd convention), given the realised transfer and cloud
// latencies during which the device idles.
func (e EnergyModel) EdgeEnergy(m *nn.Model, rows []nn.LayerCost, cut int, transferMS, cloudMS float64) (EnergyBreakdown, error) {
	if err := e.Validate(); err != nil {
		return EnergyBreakdown{}, err
	}
	n := len(m.Layers)
	if cut < -1 || cut >= n {
		return EnergyBreakdown{}, fmt.Errorf("latency: cut %d out of range [-1,%d)", cut, n)
	}
	if len(rows) != n {
		return EnergyBreakdown{}, fmt.Errorf("latency: %d cost rows for %d layers", len(rows), n)
	}
	var edgeMACCs int64
	for i := 0; i <= cut; i++ {
		edgeMACCs += rows[i].MACCs
	}
	b := EnergyBreakdown{
		ComputeMJ: float64(edgeMACCs) * e.ComputeNJPerMACC / 1e6,
		BaseMJ:    e.BaseMJ,
	}
	if cut < n-1 {
		b.RadioMJ = float64(CutBytes(m, rows, cut)) / 1e6 * e.RadioMJPerMB
		b.IdleMJ = e.IdleMW * (transferMS + cloudMS) / 1e3
	}
	return b, nil
}
