package latency

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cadmc/internal/nn"
)

func TestDeviceValidate(t *testing.T) {
	for _, d := range []Device{Phone(), TX2(), CloudServer()} {
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	if err := (Device{}).Validate(); err == nil {
		t.Fatal("empty device must not validate")
	}
	bad := Phone()
	bad.ConvCoeffNS = map[int]float64{3: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative coefficient must not validate")
	}
}

// Table I reproduction: latencies on the phone at 224×224×3 must land near
// the paper's measurements and preserve its ordering.
func TestTableIPhoneLatencies(t *testing.T) {
	phone := Phone()
	cases := []struct {
		model   string
		paperMS float64
	}{
		{"VGG19", 5734.89},
		{"ResNet50", 1103.20},
		{"ResNet101", 2238.79},
		{"ResNet152", 3729.10},
	}
	got := make(map[string]float64, len(cases))
	for _, c := range cases {
		m, err := nn.Zoo(c.model, nn.ImageNetInput, 1000)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := ModelMS(m, phone)
		if err != nil {
			t.Fatal(err)
		}
		got[c.model] = ms
		// The substrate is calibrated, not identical hardware: require the
		// same order of magnitude within a generous factor.
		if ms < c.paperMS*0.5 || ms > c.paperMS*1.7 {
			t.Errorf("%s = %.0f ms, paper %.0f ms — outside [0.5x, 1.7x]", c.model, ms, c.paperMS)
		}
	}
	if !(got["ResNet50"] < got["ResNet101"] && got["ResNet101"] < got["ResNet152"] && got["ResNet152"] < got["VGG19"]) {
		t.Errorf("Table I ordering violated: %v", got)
	}
}

func TestEdgeSlowerThanCloud(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	phoneMS, err := ModelMS(m, Phone())
	if err != nil {
		t.Fatal(err)
	}
	cloudMS, err := ModelMS(m, CloudServer())
	if err != nil {
		t.Fatal(err)
	}
	if phoneMS < 10*cloudMS {
		t.Fatalf("paper: edge ≥10x slower than cloud; got phone %.2f ms vs cloud %.2f ms", phoneMS, cloudMS)
	}
}

func TestRangeMSAdditive(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	dev := Phone()
	full, err := ModelMS(m, dev)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.Costs()
	if err != nil {
		t.Fatal(err)
	}
	mid := len(m.Layers) / 2
	a, err := RangeMS(m, rows, 0, mid, dev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RangeMS(m, rows, mid, len(m.Layers), dev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-(a+b)) > 1e-9 {
		t.Fatalf("range latency not additive: %v vs %v + %v", full, a, b)
	}
	if _, err := RangeMS(m, rows, 5, 2, dev); err == nil {
		t.Fatal("expected invalid-range error")
	}
	if _, err := RangeMS(m, rows[1:], 0, 1, dev); err == nil {
		t.Fatal("expected row-count error")
	}
}

// singleLayerMS prices layer i of m alone, the way surgery prices its graph
// nodes.
func singleLayerMS(m *nn.Model, i int, dev Device) (float64, error) {
	rows, err := m.Costs()
	if err != nil {
		return 0, err
	}
	return RangeMS(m, rows, i, i+1, dev)
}

func TestLayerMS(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	ms, err := singleLayerMS(m, 0, Phone())
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatal("conv latency must be positive")
	}
	if _, err := singleLayerMS(m, -1, Phone()); err == nil {
		t.Fatal("expected out-of-range error")
	}
	// ReLU is free.
	for i, l := range m.Layers {
		if l.Type == nn.ReLU {
			v, err := singleLayerMS(m, i, Phone())
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("ReLU latency = %v, want 0", v)
			}
			break
		}
	}
}

func TestTransferModelMS(t *testing.T) {
	tm := DefaultTransferModel()
	// 64 KB at 10 Mbps: ideal transmission 52.4 ms, plus RTT and overhead.
	ms := tm.MS(64*1024, 10)
	ideal := 64 * 1024 * 8 / (10 * 1e6) * 1e3
	if ms <= ideal {
		t.Fatalf("transfer %.2f ms must exceed ideal %.2f ms", ms, ideal)
	}
	if tm.MS(0, 10) != 0 {
		t.Fatal("zero bytes must cost zero")
	}
	if !math.IsInf(tm.MS(1000, 0), 1) {
		t.Fatal("zero bandwidth must yield +Inf (outage)")
	}
	bad := TransferModel{RTTMS: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative RTT must not validate")
	}
}

// Property: transfer latency is monotone increasing in size and decreasing
// in bandwidth.
func TestTransferMonotoneProperty(t *testing.T) {
	tm := DefaultTransferModel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := int64(rng.Intn(1<<20)) + 1
		s2 := s1 + int64(rng.Intn(1<<20)) + 1
		w1 := rng.Float64()*50 + 0.1
		w2 := w1 + rng.Float64()*50 + 0.1
		return tm.MS(s1, w1) < tm.MS(s2, w1) && tm.MS(s1, w2) < tm.MS(s1, w1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFitTransferModelRecoversParameters(t *testing.T) {
	truth := TransferModel{RTTMS: 15, Overhead: 0.25}
	rng := rand.New(rand.NewSource(77))
	samples := make([]TransferSample, 0, 200)
	for i := 0; i < 200; i++ {
		size := int64(rng.Intn(512*1024)) + 1024
		bw := rng.Float64()*40 + 1
		noise := rng.NormFloat64() * 1.5
		samples = append(samples, TransferSample{
			SizeBytes:     size,
			BandwidthMbps: bw,
			MeasuredMS:    truth.MS(size, bw) + noise,
		})
	}
	fitted, r2, err := FitTransferModel(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fitted.RTTMS-truth.RTTMS) > 2 {
		t.Fatalf("fitted RTT %.2f, truth %.2f", fitted.RTTMS, truth.RTTMS)
	}
	if math.Abs(fitted.Overhead-truth.Overhead) > 0.05 {
		t.Fatalf("fitted overhead %.3f, truth %.3f", fitted.Overhead, truth.Overhead)
	}
	if r2 < 0.95 {
		t.Fatalf("fit R² = %.3f, want ≥0.95 (Fig. 5: 'most data points fit the model well')", r2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, _, err := FitTransferModel(nil); err == nil {
		t.Fatal("expected too-few-samples error")
	}
	if _, _, err := FitTransferModel([]TransferSample{{SizeBytes: 1, BandwidthMbps: -1}, {SizeBytes: 1, BandwidthMbps: 1}}); err == nil {
		t.Fatal("expected bad-bandwidth error")
	}
	if _, _, _, err := LinearFit([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected degenerate-fit error")
	}
	if _, _, err := FitThroughOrigin([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected degenerate origin fit error")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-3) > 1e-9 || math.Abs(b-2) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Fatalf("fit = (%v, %v, %v), want (3, 2, 1)", a, b, r2)
	}
}

func TestEndToEndDecomposition(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	est, err := NewEstimator(Phone(), CloudServer(), DefaultTransferModel())
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Layers)

	allEdge, err := est.EndToEnd(m, n-1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if allEdge.TransferMS != 0 || allEdge.CloudMS != 0 {
		t.Fatalf("all-edge must have zero transfer/cloud: %+v", allEdge)
	}

	allCloud, err := est.EndToEnd(m, -1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if allCloud.EdgeMS != 0 || allCloud.TransferMS <= 0 || allCloud.CloudMS <= 0 {
		t.Fatalf("all-cloud breakdown wrong: %+v", allCloud)
	}

	mid, err := est.EndToEnd(m, n/2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mid.EdgeMS <= 0 || mid.TransferMS <= 0 || mid.CloudMS < 0 {
		t.Fatalf("mid-cut breakdown wrong: %+v", mid)
	}
	if mid.TotalMS() != mid.EdgeMS+mid.TransferMS+mid.CloudMS {
		t.Fatal("TotalMS must equal the sum of parts")
	}

	if _, err := est.EndToEnd(m, -2, 10); err == nil {
		t.Fatal("expected cut-range error")
	}
}

// Under good bandwidth, some offloading must beat pure edge execution — the
// premise of the whole paper.
func TestOffloadingWinsUnderGoodBandwidth(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	est, err := NewEstimator(Phone(), CloudServer(), DefaultTransferModel())
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Layers)
	edgeOnly, err := est.EndToEnd(m, n-1, 40)
	if err != nil {
		t.Fatal(err)
	}
	best := edgeOnly.TotalMS()
	bestCut := n - 1
	cuts, err := m.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append([]int{-1}, cuts...) {
		b, err := est.EndToEnd(m, c, 40)
		if err != nil {
			t.Fatal(err)
		}
		if b.TotalMS() < best {
			best = b.TotalMS()
			bestCut = c
		}
	}
	if bestCut == n-1 {
		t.Fatalf("at 40 Mbps some offload cut must beat edge-only (%.2f ms)", edgeOnly.TotalMS())
	}
	// And under terrible bandwidth, edge-only must win.
	bestBad := math.Inf(1)
	bestBadCut := 0
	for _, c := range append(append([]int{-1}, cuts...), n-1) {
		b, err := est.EndToEnd(m, c, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if b.TotalMS() < bestBad {
			bestBad = b.TotalMS()
			bestBadCut = c
		}
	}
	if bestBadCut != n-1 {
		t.Fatalf("at 0.05 Mbps edge-only must win, got cut %d", bestBadCut)
	}
}

func TestNewEstimatorValidates(t *testing.T) {
	if _, err := NewEstimator(Device{}, CloudServer(), DefaultTransferModel()); err == nil {
		t.Fatal("expected invalid-edge error")
	}
	if _, err := NewEstimator(Phone(), Device{}, DefaultTransferModel()); err == nil {
		t.Fatal("expected invalid-cloud error")
	}
	if _, err := NewEstimator(Phone(), CloudServer(), TransferModel{RTTMS: -5}); err == nil {
		t.Fatal("expected invalid-transfer error")
	}
}

func TestFitThroughOriginRecoversSlope(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 * x
	}
	slope, r2, err := FitThroughOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2.5) > 1e-12 || math.Abs(r2-1) > 1e-12 {
		t.Fatalf("fit = (%v, %v), want (2.5, 1)", slope, r2)
	}
	// Noisy fit still close.
	rng := rand.New(rand.NewSource(5))
	for i := range ys {
		ys[i] *= 1 + rng.NormFloat64()*0.02
	}
	slope, r2, err = FitThroughOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2.5) > 0.2 || r2 < 0.9 {
		t.Fatalf("noisy fit = (%v, %v)", slope, r2)
	}
	if _, _, err := FitThroughOrigin([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestLayerMSSpecialLayers(t *testing.T) {
	phone := Phone()
	// Fire layers use the 3x3 coefficient; quantised layers run faster;
	// depthwise pays its inefficiency factor; projection adds pay 1x1 cost.
	m := &nn.Model{
		Name: "kinds", Input: nn.Shape{C: 16, H: 8, W: 8}, Classes: 0,
		Layers: []nn.Layer{
			nn.NewFire(16, 4, 32),            // 0
			nn.NewDepthwiseConv(32, 3, 1, 1), // 1
			nn.NewConv(32, 32, 3, 1, 1),      // 2
			nn.NewProjAdd(0, 32, 32, 1),      // 3: projection from fire output
		},
	}
	fireMS, err := singleLayerMS(m, 0, phone)
	if err != nil {
		t.Fatal(err)
	}
	if fireMS <= 0 {
		t.Fatal("fire latency must be positive")
	}
	dwMS, err := singleLayerMS(m, 1, phone)
	if err != nil {
		t.Fatal(err)
	}
	convMS, err := singleLayerMS(m, 2, phone)
	if err != nil {
		t.Fatal(err)
	}
	// Per MACC the depthwise is slower: conv has 32x the MACCs but far less
	// than 32x the latency.
	if convMS/dwMS >= 32 {
		t.Fatalf("depthwise inefficiency not applied: conv %.4f vs dw %.4f", convMS, dwMS)
	}
	projMS, err := singleLayerMS(m, 3, phone)
	if err != nil {
		t.Fatal(err)
	}
	if projMS <= 0 {
		t.Fatal("projection add latency must be positive")
	}
	// Identity adds are free.
	m2 := &nn.Model{
		Name: "idadd", Input: nn.Shape{C: 8, H: 4, W: 4}, Classes: 0,
		Layers: []nn.Layer{nn.NewReLU(), nn.NewAdd(0)},
	}
	idMS, err := singleLayerMS(m2, 1, phone)
	if err != nil {
		t.Fatal(err)
	}
	if idMS != 0 {
		t.Fatalf("identity add latency = %v, want 0", idMS)
	}
	// Quantisation speeds a conv up.
	q := m.Clone()
	q.Layers[2].Bits = 8
	qMS, err := singleLayerMS(q, 2, phone)
	if err != nil {
		t.Fatal(err)
	}
	if qMS >= convMS {
		t.Fatalf("8-bit conv %.4f not faster than fp32 %.4f", qMS, convMS)
	}
}

func TestConvCoeffFallback(t *testing.T) {
	phone := Phone()
	// Kernel size absent from the map falls back to the default.
	m := &nn.Model{
		Name: "k9", Input: nn.Shape{C: 4, H: 32, W: 32}, Classes: 0,
		Layers: []nn.Layer{nn.NewConv(4, 4, 9, 1, 4)},
	}
	ms, err := singleLayerMS(m, 0, phone)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Fatal("fallback coefficient must produce positive latency")
	}
}
