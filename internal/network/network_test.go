package network

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogValidatesAndCoversTables(t *testing.T) {
	want := []string{
		"4G (weak) indoor", "4G indoor static", "4G indoor slow", "4G outdoor quick",
		"WiFi (weak) indoor", "WiFi (weak) outdoor", "WiFi outdoor slow",
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d scenarios, want %d", len(cat), len(want))
	}
	for i, name := range want {
		if cat[i].Name != name {
			t.Fatalf("scenario %d = %q, want %q", i, cat[i].Name, name)
		}
		if err := cat[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("4G indoor static")
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanMbps <= 0 {
		t.Fatal("scenario mean must be positive")
	}
	if _, err := ByName("5G moonbase"); err == nil {
		t.Fatal("expected unknown-scenario error")
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := Scenario{Name: "x", MeanMbps: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative mean must not validate")
	}
	bad = Scenario{Name: "x", MeanMbps: 5, OutageRate: 1, OutageDepth: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("outage depth ≥1 must not validate")
	}
	bad = Scenario{Name: "x", MeanMbps: 5, RegimeSwitchRate: 1, RegimeRatio: 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("regime ratio ≥1 must not validate")
	}
	if err := (Scenario{MeanMbps: 5}).Validate(); err == nil {
		t.Fatal("unnamed scenario must not validate")
	}
}

func TestGenerateDeterministicAndPositive(t *testing.T) {
	s, _ := ByName("4G outdoor quick")
	a, err := Generate(s, 42, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s, 42, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mbps) != len(b.Mbps) {
		t.Fatal("length mismatch")
	}
	for i := range a.Mbps {
		if a.Mbps[i] != b.Mbps[i] {
			t.Fatalf("traces diverge at %d", i)
		}
		if a.Mbps[i] <= 0 {
			t.Fatalf("non-positive bandwidth at %d", i)
		}
	}
	if _, err := Generate(s, 1, -5); err == nil {
		t.Fatal("expected duration error")
	}
}

func TestGenerateMeansMatchScenario(t *testing.T) {
	for _, s := range Catalog() {
		tr, err := Generate(s, 7, 600_000) // 10 minutes
		if err != nil {
			t.Fatal(err)
		}
		st := tr.Summarize()
		// Outages and regimes depress the mean; allow a wide but meaningful
		// band around the configured level.
		if st.MeanMbps < s.MeanMbps*0.3 || st.MeanMbps > s.MeanMbps*1.7 {
			t.Errorf("%s: trace mean %.2f Mbps vs configured %.2f", s.Name, st.MeanMbps, s.MeanMbps)
		}
	}
}

// Fig. 1's point: bandwidth changes drastically within 1 s in mobile/weak
// scenarios, and much less in the static one.
func TestFig1FluctuationOrdering(t *testing.T) {
	static, _ := ByName("4G indoor static")
	quickSc, _ := ByName("4G outdoor quick")
	ts, err := Generate(static, 3, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	tq, err := Generate(quickSc, 3, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	cs := ts.Summarize().MeanAbsChangePerSec
	cq := tq.Summarize().MeanAbsChangePerSec
	if cq <= 2*cs {
		t.Fatalf("quick-outdoor per-second change (%.3f) must far exceed static (%.3f)", cq, cs)
	}
	if cq < 0.10 {
		t.Fatalf("quick-outdoor change %.3f — Fig. 1 shows drastic sub-second change", cq)
	}
}

func TestTraceAtWrapsAndClamps(t *testing.T) {
	tr := &Trace{PeriodMS: 100, Mbps: []float64{1, 2, 3}}
	if tr.At(0) != 1 || tr.At(150) != 2 || tr.At(250) != 3 {
		t.Fatal("At lookup wrong")
	}
	if tr.At(300) != 1 {
		t.Fatal("At must wrap")
	}
	if tr.At(-50) != 1 {
		t.Fatal("negative time must clamp to start")
	}
	empty := &Trace{PeriodMS: 100}
	if empty.At(0) != 0 {
		t.Fatal("empty trace returns 0")
	}
	if tr.DurationMS() != 300 {
		t.Fatalf("duration = %v", tr.DurationMS())
	}
}

func TestQuantileAndClasses(t *testing.T) {
	tr := &Trace{PeriodMS: 100, Mbps: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	if q := tr.Quantile(0.5); q != 5 {
		t.Fatalf("median = %v, want 5", q)
	}
	classes, err := tr.Classes(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 2 || classes[0] >= classes[1] {
		t.Fatalf("classes = %v, want increasing pair", classes)
	}
	if classes[0] != 3 || classes[1] != 7 {
		t.Fatalf("K=2 classes = %v, want lower/upper quartiles [3 7]", classes)
	}
	if _, err := tr.Classes(0); err == nil {
		t.Fatal("expected class-count error")
	}
	c5, err := tr.Classes(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c5); i++ {
		if c5[i] < c5[i-1] {
			t.Fatalf("classes must be nondecreasing: %v", c5)
		}
	}
}

func TestClassify(t *testing.T) {
	classes := []float64{2, 10}
	cases := []struct {
		w    float64
		want int
	}{
		{1, 0}, {2, 0}, {4, 0}, {5, 1}, {10, 1}, {100, 1}, {0, 0},
	}
	for _, c := range cases {
		if got := Classify(classes, c.w); got != c.want {
			t.Fatalf("Classify(%v) = %d, want %d", c.w, got, c.want)
		}
	}
	if Classify(nil, 5) != 0 {
		t.Fatal("empty classes default to 0")
	}
}

// Property: Classify is monotone — higher bandwidth never maps to a lower
// class.
func TestClassifyMonotoneProperty(t *testing.T) {
	classes := []float64{1.5, 6, 20}
	f := func(a, b float64) bool {
		wa, wb := math.Abs(a)+0.01, math.Abs(b)+0.01
		if wa > wb {
			wa, wb = wb, wa
		}
		return Classify(classes, wa) <= Classify(classes, wb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleMonitor(t *testing.T) {
	tr := &Trace{PeriodMS: 100, Mbps: []float64{5, 6}}
	m := &OracleMonitor{Trace: tr}
	if m.EstimateMbps(0) != 5 || m.EstimateMbps(100) != 6 {
		t.Fatal("oracle monitor must read the trace exactly")
	}
}

func TestCoarseMonitorStaleness(t *testing.T) {
	tr := &Trace{PeriodMS: 100, Mbps: []float64{5, 50, 5, 50, 5, 50, 5, 50, 5, 50}}
	mon, err := NewCoarseMonitor(tr, 500, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Within one probe interval the estimate must not change even though the
	// truth oscillates.
	first := mon.EstimateMbps(0)
	for _, tm := range []float64{100, 200, 300, 400} {
		if got := mon.EstimateMbps(tm); got != first {
			t.Fatalf("estimate changed mid-interval: %v -> %v", first, got)
		}
	}
	// A new interval triggers a fresh probe of the boundary value.
	second := mon.EstimateMbps(500)
	if second != tr.At(500) {
		t.Fatalf("new probe = %v, want truth %v", second, tr.At(500))
	}
}

func TestCoarseMonitorNoiseBounded(t *testing.T) {
	tr := &Trace{PeriodMS: 100, Mbps: []float64{10, 10, 10, 10}}
	mon, err := NewCoarseMonitor(tr, 100, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := mon.EstimateMbps(float64(i) * 100)
		if v < 10*math.Exp(-1.5)-1e-9 || v > 10*math.Exp(1.5)+1e-9 {
			t.Fatalf("noisy estimate %v escapes the clamped band", v)
		}
	}
}

func TestCoarseMonitorValidation(t *testing.T) {
	if _, err := NewCoarseMonitor(nil, 100, 0, 1); err == nil {
		t.Fatal("expected nil-trace error")
	}
	tr := &Trace{PeriodMS: 100, Mbps: []float64{1}}
	if _, err := NewCoarseMonitor(tr, 0, 0, 1); err == nil {
		t.Fatal("expected probe-interval error")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	empty := &Trace{}
	if st := empty.Summarize(); st.MeanMbps != 0 {
		t.Fatal("empty trace stats must be zero")
	}
}
