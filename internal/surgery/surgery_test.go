package surgery

import (
	"math"
	"testing"

	"cadmc/internal/latency"
	"cadmc/internal/nn"
)

func newEstimator(t *testing.T) *latency.Estimator {
	t.Helper()
	est, err := latency.NewEstimator(latency.Phone(), latency.CloudServer(), latency.DefaultTransferModel())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestMaxflowSmallGraph(t *testing.T) {
	// Classic 4-node example: s=0, t=3; max flow 5.
	g := newGraph(4, 5)
	g.addArc(0, 1, 3)
	g.addArc(0, 2, 2)
	g.addArc(1, 2, 5)
	g.addArc(1, 3, 2)
	g.addArc(2, 3, 3)
	flow := g.maxflow(0, 3)
	if math.Abs(flow-5) > 1e-9 {
		t.Fatalf("max flow = %v, want 5", flow)
	}
	side := g.minCutSourceSide(0)
	if !side[0] || side[3] {
		t.Fatal("cut sides wrong")
	}
}

func TestMaxflowDisconnected(t *testing.T) {
	g := newGraph(3, 1)
	g.addArc(0, 1, 4)
	if flow := g.maxflow(0, 2); flow != 0 {
		t.Fatalf("flow across disconnected graph = %v, want 0", flow)
	}
}

func TestPartitionMatchesEnumerationOnChain(t *testing.T) {
	est := newEstimator(t)
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	for _, bw := range []float64{0.1, 1, 5, 10, 20, 50} {
		res, err := Partition(m, est, bw)
		if err != nil {
			t.Fatal(err)
		}
		_, enumBest, err := OptimalChainCut(m, est, bw)
		if err != nil {
			t.Fatal(err)
		}
		// The min-cut may split at fused boundaries the enumeration skips,
		// so it can only be equal or better.
		if res.Latency.TotalMS() > enumBest.TotalMS()+1e-6 {
			t.Fatalf("bw=%v: min-cut %.3f ms worse than enumeration %.3f ms",
				bw, res.Latency.TotalMS(), enumBest.TotalMS())
		}
	}
}

func TestPartitionPrefixStructure(t *testing.T) {
	est := newEstimator(t)
	m := nn.AlexNet(nn.CIFARInput, nn.CIFARClasses)
	res, err := Partition(m, est, 10)
	if err != nil {
		t.Fatal(err)
	}
	// On a chain, the assignment must be a prefix: no edge layer after a
	// cloud layer.
	seenCloud := false
	for i, e := range res.EdgeSide {
		if !e {
			seenCloud = true
		} else if seenCloud {
			t.Fatalf("layer %d on edge after a cloud layer — backflow forbidden", i)
		}
	}
}

func TestPartitionBandwidthMonotonicity(t *testing.T) {
	est := newEstimator(t)
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	// Terrible bandwidth: everything on edge. Excellent: offload early.
	bad, err := Partition(m, est, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range bad.EdgeSide {
		if !e {
			t.Fatalf("at 0.01 Mbps layer %d offloaded", i)
		}
	}
	good, err := Partition(m, est, 100)
	if err != nil {
		t.Fatal(err)
	}
	edgeCountGood := 0
	for _, e := range good.EdgeSide {
		if e {
			edgeCountGood++
		}
	}
	if edgeCountGood == len(good.EdgeSide) {
		t.Fatal("at 100 Mbps surgery must offload something")
	}
	if good.Latency.TotalMS() >= bad.Latency.TotalMS() {
		t.Fatalf("better bandwidth must not hurt: %.2f vs %.2f",
			good.Latency.TotalMS(), bad.Latency.TotalMS())
	}
}

func TestPartitionOnResNetWithSkips(t *testing.T) {
	est := newEstimator(t)
	m := nn.ResNet50(nn.ImageNetInput, 1000)
	res, err := Partition(m, est, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate must agree with the breakdown Partition reports.
	b, err := Evaluate(m, res.EdgeSide, est, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.TotalMS()-res.Latency.TotalMS()) > 1e-9 {
		t.Fatalf("evaluate %.3f vs partition %.3f", b.TotalMS(), res.Latency.TotalMS())
	}
	// Min-cut must not exceed the best clean cut.
	_, enumBest, err := OptimalChainCut(m, est, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.TotalMS() > enumBest.TotalMS()+1e-6 {
		t.Fatalf("min-cut %.3f worse than clean-cut enumeration %.3f",
			res.Latency.TotalMS(), enumBest.TotalMS())
	}
}

func TestEvaluateAllEdgeAllCloud(t *testing.T) {
	est := newEstimator(t)
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	n := len(m.Layers)
	allEdge := make([]bool, n)
	for i := range allEdge {
		allEdge[i] = true
	}
	b, err := Evaluate(m, allEdge, est, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.TransferMS != 0 || b.CloudMS != 0 {
		t.Fatalf("all-edge must not transfer: %+v", b)
	}
	allCloud := make([]bool, n)
	b, err = Evaluate(m, allCloud, est, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.EdgeMS != 0 || b.TransferMS <= 0 {
		t.Fatalf("all-cloud must ship the input: %+v", b)
	}
	if _, err := Evaluate(m, nil, est, 10); err == nil {
		t.Fatal("expected assignment-length error")
	}
}

func TestPartitionEmptyModel(t *testing.T) {
	est := newEstimator(t)
	if _, err := Partition(&nn.Model{Name: "empty"}, est, 10); err == nil {
		t.Fatal("expected empty-model error")
	}
}

func TestPartitionOutageStaysOnEdge(t *testing.T) {
	est := newEstimator(t)
	m := nn.AlexNet(nn.CIFARInput, nn.CIFARClasses)
	res, err := Partition(m, est, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.EdgeSide {
		if !e {
			t.Fatalf("under outage layer %d offloaded", i)
		}
	}
	if math.IsInf(res.Latency.TotalMS(), 1) {
		t.Fatal("all-edge latency must be finite under outage")
	}
}
