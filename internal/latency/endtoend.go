package latency

import (
	"fmt"

	"cadmc/internal/nn"
)

// Breakdown is the Eq. 3 decomposition T = Te + Tt + Tc, in milliseconds.
type Breakdown struct {
	EdgeMS     float64
	TransferMS float64
	CloudMS    float64
}

// TotalMS returns Te + Tt + Tc.
func (b Breakdown) TotalMS() float64 { return b.EdgeMS + b.TransferMS + b.CloudMS }

// Estimator bundles the device profiles and the transfer model into the
// end-to-end latency oracle the decision engine optimises against.
type Estimator struct {
	Edge     Device
	Cloud    Device
	Transfer TransferModel
}

// NewEstimator validates and builds an estimator.
func NewEstimator(edge, cloud Device, transfer TransferModel) (*Estimator, error) {
	if err := edge.Validate(); err != nil {
		return nil, err
	}
	if err := cloud.Validate(); err != nil {
		return nil, err
	}
	if err := transfer.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{Edge: edge, Cloud: cloud, Transfer: transfer}, nil
}

// EndToEnd estimates the inference latency of model m partitioned after
// layer `cut` under the given bandwidth:
//
//   - cut == -1: the raw input is shipped and everything runs on the cloud;
//   - cut == len(layers)-1: everything runs on the edge and nothing is
//     transferred (the final result is small enough to ignore, per the paper);
//   - otherwise layers [0,cut] run on the edge, the activation after `cut`
//     crosses the network, and layers (cut, end) run on the cloud.
func (e *Estimator) EndToEnd(m *nn.Model, cut int, bandwidthMbps float64) (Breakdown, error) {
	n := len(m.Layers)
	if cut < -1 || cut >= n {
		return Breakdown{}, fmt.Errorf("latency: cut %d out of range [-1,%d)", cut, n)
	}
	rows, err := m.Costs()
	if err != nil {
		return Breakdown{}, err
	}
	var b Breakdown
	b.EdgeMS = rangeMS(m, rows, 0, cut+1, e.Edge)
	b.CloudMS = rangeMS(m, rows, cut+1, n, e.Cloud)
	if cut < n-1 {
		b.TransferMS = e.Transfer.MS(CutBytes(m, rows, cut), bandwidthMbps)
	}
	return b, nil
}
