package surgery

import (
	"fmt"
	"math"

	"cadmc/internal/latency"
	"cadmc/internal/nn"
)

// Result is an optimal partition of a fixed model at a constant bandwidth.
type Result struct {
	// EdgeSide[i] reports whether layer i runs on the edge device.
	EdgeSide []bool
	// Cut is the clean split point when the assignment is a prefix: the last
	// edge-side layer index, or -1 when everything runs on the cloud. For
	// non-prefix assignments (a skip connection split by the cut) Cut is the
	// last contiguous edge-side prefix layer.
	Cut int
	// Latency is the Eq. 3 breakdown of the chosen assignment.
	Latency latency.Breakdown
}

// Partition finds the minimum-latency edge/cloud assignment of m at the given
// bandwidth via min-cut on the DADS graph construction:
//
//   - arc S→v with capacity = cloud compute cost of layer v (paid if v is
//     assigned to the cloud),
//   - arc v→T with capacity = edge compute cost of v (paid if v stays on the
//     edge),
//   - arc u→v with capacity = transfer cost of u's output (paid if u is on
//     the edge and v on the cloud), with an ∞ reverse arc forbidding
//     cloud→edge backflow,
//   - a pinned input node whose outgoing arc carries the input-upload cost.
func Partition(m *nn.Model, est *latency.Estimator, bandwidthMbps float64) (*Result, error) {
	n := len(m.Layers)
	if n == 0 {
		return nil, fmt.Errorf("surgery: empty model")
	}
	rows, err := m.Costs()
	if err != nil {
		return nil, err
	}
	// Nodes: 0..n-1 layers, n = input holder, n+1 = source, n+2 = sink.
	inputNode, src, sink := n, n+1, n+2
	g := newGraph(n + 3)
	inf := math.Inf(1)
	g.addArc(src, inputNode, inf) // input data lives on the edge
	for i := 0; i < n; i++ {
		edgeMS, err := latency.RangeMS(m, rows, i, i+1, est.Edge)
		if err != nil {
			return nil, err
		}
		cloudMS, err := latency.RangeMS(m, rows, i, i+1, est.Cloud)
		if err != nil {
			return nil, err
		}
		g.addArc(src, i, cloudMS)
		g.addArc(i, sink, edgeMS)
	}
	addDataArc := func(u, v int, bytes int64) {
		t := est.Transfer.MS(bytes, bandwidthMbps)
		if math.IsInf(t, 1) {
			// Outage: make offloading across this arc prohibitively
			// expensive but finite so max-flow terminates.
			t = 1e12
		}
		g.addArc(u, v, t)
		g.addArc(v, u, inf) // forbid cloud→edge backflow
	}
	addDataArc(inputNode, 0, latency.CutBytes(m, rows, -1))
	for i := 0; i < n-1; i++ {
		addDataArc(i, i+1, rows[i].OutBytes)
	}
	for j, l := range m.Layers {
		if l.Type == nn.Add && l.SkipFrom >= 0 && l.SkipFrom != j-1 {
			addDataArc(l.SkipFrom, j, rows[l.SkipFrom].OutBytes)
		}
	}
	g.maxflow(src, sink)
	side := g.minCutSourceSide(src)

	res := &Result{EdgeSide: make([]bool, n), Cut: -1}
	for i := 0; i < n; i++ {
		res.EdgeSide[i] = side[i]
	}
	for i := 0; i < n && res.EdgeSide[i]; i++ {
		res.Cut = i
	}
	res.Latency, err = evaluate(m, rows, res.EdgeSide, est, bandwidthMbps)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Evaluate computes the Eq. 3 latency breakdown of an arbitrary edge/cloud
// assignment: edge compute + transfer of every activation crossing the cut +
// cloud compute. Crossing tensors are shipped back-to-back over one
// connection, so the RTT is paid once.
func Evaluate(m *nn.Model, edgeSide []bool, est *latency.Estimator, bandwidthMbps float64) (latency.Breakdown, error) {
	rows, err := m.Costs()
	if err != nil {
		return latency.Breakdown{}, err
	}
	return evaluate(m, rows, edgeSide, est, bandwidthMbps)
}

// evaluate is Evaluate over m's cost-table rows.
func evaluate(m *nn.Model, rows []nn.LayerCost, edgeSide []bool, est *latency.Estimator, bandwidthMbps float64) (latency.Breakdown, error) {
	n := len(m.Layers)
	if len(edgeSide) != n {
		return latency.Breakdown{}, fmt.Errorf("surgery: assignment length %d for %d layers", len(edgeSide), n)
	}
	var b latency.Breakdown
	for i := 0; i < n; i++ {
		ms, err := latency.RangeMS(m, rows, i, i+1, pick(est, edgeSide[i]))
		if err != nil {
			return latency.Breakdown{}, err
		}
		if edgeSide[i] {
			b.EdgeMS += ms
		} else {
			b.CloudMS += ms
		}
	}
	var crossBytes int64
	addCross := func(producer int, consumerEdge bool) {
		producerEdge := producer < 0 || edgeSide[producer]
		if producerEdge && !consumerEdge {
			crossBytes += latency.CutBytes(m, rows, producer)
		}
	}
	addCross(-1, edgeSide[0])
	for i := 1; i < n; i++ {
		addCross(i-1, edgeSide[i])
	}
	for j, l := range m.Layers {
		if l.Type == nn.Add && l.SkipFrom >= 0 && l.SkipFrom != j-1 {
			addCross(l.SkipFrom, edgeSide[j])
		}
	}
	if crossBytes > 0 {
		b.TransferMS = est.Transfer.MS(crossBytes, bandwidthMbps)
	}
	return b, nil
}

func pick(est *latency.Estimator, edge bool) latency.Device {
	if edge {
		return est.Edge
	}
	return est.Cloud
}

// OptimalChainCut enumerates every clean cut (including all-edge and
// all-cloud) and returns the latency-minimal one. On chain models this is the
// Neurosurgeon-style exact solution and must agree with Partition; it also
// serves as a cross-check oracle in tests.
func OptimalChainCut(m *nn.Model, est *latency.Estimator, bandwidthMbps float64) (int, latency.Breakdown, error) {
	n := len(m.Layers)
	cuts, err := m.CutPoints()
	if err != nil {
		return 0, latency.Breakdown{}, err
	}
	candidates := append([]int{-1}, cuts...)
	if len(cuts) == 0 || cuts[len(cuts)-1] != n-1 {
		candidates = append(candidates, n-1)
	}
	bestCut := n - 1
	best := latency.Breakdown{EdgeMS: math.Inf(1)}
	for _, c := range candidates {
		b, err := est.EndToEnd(m, c, bandwidthMbps)
		if err != nil {
			return 0, latency.Breakdown{}, err
		}
		if b.TotalMS() < best.TotalMS() {
			best = b
			bestCut = c
		}
	}
	return bestCut, best, nil
}
