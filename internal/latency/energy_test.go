package latency

import (
	"testing"

	"cadmc/internal/compress"
	"cadmc/internal/nn"
)

// rowsOf returns m's cost table, failing the test on a shape error.
func rowsOf(t *testing.T, m *nn.Model) []nn.LayerCost {
	t.Helper()
	rows, err := m.Costs()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestEnergyModelValidate(t *testing.T) {
	if err := DefaultPhoneEnergy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultPhoneEnergy()
	bad.ComputeNJPerMACC = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected invalid-model error")
	}
}

func TestEdgeEnergyAllEdgeHasNoRadio(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	e := DefaultPhoneEnergy()
	b, err := e.EdgeEnergy(m, rowsOf(t, m), len(m.Layers)-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.RadioMJ != 0 || b.IdleMJ != 0 {
		t.Fatalf("all-edge must have zero radio/idle energy: %+v", b)
	}
	if b.ComputeMJ <= 0 {
		t.Fatal("compute energy must be positive")
	}
	if b.TotalMJ() != b.ComputeMJ+b.BaseMJ {
		t.Fatal("total mismatch")
	}
}

func TestEdgeEnergyAllCloudHasNoCompute(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	e := DefaultPhoneEnergy()
	b, err := e.EdgeEnergy(m, rowsOf(t, m), -1, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.ComputeMJ != 0 {
		t.Fatalf("all-cloud must have zero compute energy: %+v", b)
	}
	if b.RadioMJ <= 0 || b.IdleMJ <= 0 {
		t.Fatalf("all-cloud must pay radio and idle energy: %+v", b)
	}
}

func TestEdgeEnergyCompressionSavesEnergy(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	var actions []compress.Action
	for i, l := range m.Layers {
		if l.Type == nn.Conv && l.Kernel >= 3 {
			actions = append(actions, compress.Action{Layer: i, Technique: compress.Technique{ID: compress.W1, KeepRatio: 0.5}})
		}
	}
	compressed, _, err := compress.ApplyPlan(m, actions)
	if err != nil {
		t.Fatal(err)
	}
	e := DefaultPhoneEnergy()
	full, err := e.EdgeEnergy(m, rowsOf(t, m), len(m.Layers)-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := e.EdgeEnergy(compressed, rowsOf(t, compressed), len(compressed.Layers)-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalMJ() >= full.TotalMJ() {
		t.Fatalf("compression must save edge energy: %.2f vs %.2f mJ", small.TotalMJ(), full.TotalMJ())
	}
}

func TestEdgeEnergyOffloadTradesComputeForRadio(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	e := DefaultPhoneEnergy()
	cuts, err := m.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	early, err := e.EdgeEnergy(m, rowsOf(t, m), cuts[0], 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	late, err := e.EdgeEnergy(m, rowsOf(t, m), len(m.Layers)-1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if early.ComputeMJ >= late.ComputeMJ {
		t.Fatal("early offload must use less compute energy")
	}
	if early.RadioMJ <= 0 {
		t.Fatal("early offload must pay radio energy")
	}
}

func TestEdgeEnergyErrors(t *testing.T) {
	m := nn.VGG11(nn.CIFARInput, nn.CIFARClasses)
	e := DefaultPhoneEnergy()
	if _, err := e.EdgeEnergy(m, rowsOf(t, m), -5, 0, 0); err == nil {
		t.Fatal("expected cut-range error")
	}
	bad := EnergyModel{}
	if _, err := bad.EdgeEnergy(m, rowsOf(t, m), 0, 0, 0); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := e.EdgeEnergy(m, rowsOf(t, m)[1:], 0, 0, 0); err == nil {
		t.Fatal("expected row-count error")
	}
}
