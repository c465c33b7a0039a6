package nn

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestLayerString(t *testing.T) {
	l := NewConv(3, 64, 3, 1, 1)
	if got, want := l.String(), "Conv,3,1,1,64"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	fc := NewFC(512, 10)
	if got, want := fc.String(), "FC,0,0,0,10"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestLayerTypeString(t *testing.T) {
	if Conv.String() != "Conv" || FC.String() != "FC" {
		t.Fatal("layer type names wrong")
	}
	if LayerType(99).Valid() {
		t.Fatal("type 99 should be invalid")
	}
	if LayerType(99).String() != "LayerType(99)" {
		t.Fatalf("unknown type rendering = %q", LayerType(99).String())
	}
}

func TestInferDimsSimpleChain(t *testing.T) {
	m := &Model{
		Name:    "tiny",
		Input:   Shape{C: 3, H: 8, W: 8},
		Classes: 10,
		Layers: []Layer{
			NewConv(3, 4, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2, 2),
			NewFlatten(),
			NewFC(4*4*4, 10),
		},
	}
	dims, err := m.InferDims()
	if err != nil {
		t.Fatal(err)
	}
	want := []Shape{
		{C: 4, H: 8, W: 8},
		{C: 4, H: 8, W: 8},
		{C: 4, H: 4, W: 4},
		{C: 64, H: 1, W: 1},
		{C: 10, H: 1, W: 1},
	}
	for i, w := range want {
		if dims[i].Out != w {
			t.Fatalf("layer %d out = %v, want %v", i, dims[i].Out, w)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInferDimsErrors(t *testing.T) {
	cases := []struct {
		name   string
		layers []Layer
	}{
		{"channel mismatch", []Layer{NewConv(5, 4, 3, 1, 1)}},
		{"empty output", []Layer{NewConv(3, 4, 9, 1, 0)}},
		{"fc before flatten", []Layer{NewFC(10, 10)}},
		{"bad skip index", []Layer{NewConv(3, 4, 3, 1, 1), NewAdd(5)}},
		{"skip shape mismatch", []Layer{NewConv(3, 4, 3, 1, 1), NewConv(4, 8, 3, 1, 1), NewAdd(0)}},
	}
	for _, c := range cases {
		m := &Model{Name: c.name, Input: Shape{C: 3, H: 8, W: 8}, Layers: c.layers}
		if _, err := m.InferDims(); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

func TestValidateFinalShape(t *testing.T) {
	m := &Model{
		Name: "wrongout", Input: Shape{C: 3, H: 8, W: 8}, Classes: 10,
		Layers: []Layer{NewFlatten(), NewFC(192, 7)},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("expected final-shape validation error")
	}
	if err := (&Model{Name: "empty"}).Validate(); err == nil {
		t.Fatal("expected empty-model validation error")
	}
}

// Normalize runs Validate's checks too: a model whose final width differs
// from Classes, or that has no layers, is refused.
func TestNormalizeChecksFinalShape(t *testing.T) {
	m := &Model{
		Name: "wrongout", Input: Shape{C: 3, H: 8, W: 8}, Classes: 10,
		Layers: []Layer{NewFlatten(), NewFC(192, 7)},
	}
	if err := m.Normalize(); err == nil {
		t.Fatal("expected final-shape error from Normalize")
	}
	if err := (&Model{Name: "empty"}).Normalize(); err == nil {
		t.Fatal("expected empty-model error from Normalize")
	}
	// Channel counts Normalize repairs are not an error; only the head is.
	for _, name := range []string{"VGG11", "AlexNet", "ResNet50"} {
		m, err := Zoo(name, CIFARInput, CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		m.Classes++
		if err := m.Normalize(); err == nil {
			t.Fatalf("%s: Normalize accepts %d classes on a %d-way head", name, m.Classes, CIFARClasses)
		}
	}
}

func TestMACCFormulas(t *testing.T) {
	m := &Model{
		Name: "macc", Input: Shape{C: 3, H: 8, W: 8}, Classes: 10,
		Layers: []Layer{
			NewConv(3, 16, 3, 1, 1),       // 3*3*3*16*8*8 = 27648
			NewDepthwiseConv(16, 3, 1, 1), // 3*3*16*8*8 = 9216
			NewMaxPool(2, 2),              // 0
			NewFire(16, 4, 32),            // 16 (16*4 + 4*16 + 9*4*16) = 16*(64+64+576)=11264
			NewFlatten(),
			NewFC(32*4*4, 10), // 5120
		},
	}
	rows, err := m.Costs()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{27648, 9216, 0, 11264, 0, 5120}
	for i, w := range want {
		if rows[i].MACCs != w {
			t.Fatalf("layer %d MACCs = %d, want %d", i, rows[i].MACCs, w)
		}
	}
	total, err := m.MACCs()
	if err != nil {
		t.Fatal(err)
	}
	if total != 27648+9216+11264+5120 {
		t.Fatalf("total MACCs = %d", total)
	}
}

func TestSparsityScalesMACCsAndParams(t *testing.T) {
	l := NewFC(100, 100)
	l.Sparsity = 0.75
	m := &Model{Name: "sparse", Input: Shape{C: 100, H: 1, W: 1}, Layers: []Layer{l}}
	rows, err := m.Costs()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MACCs != 2500 {
		t.Fatalf("sparse FC MACCs = %d, want 2500", rows[0].MACCs)
	}
	if rows[0].Params != 2500+100 {
		t.Fatalf("sparse FC params = %d, want 2600", rows[0].Params)
	}
}

func TestNormalizeRepairsChannels(t *testing.T) {
	m := VGG11(CIFARInput, CIFARClasses)
	// Simulate filter pruning: halve the first conv's output channels.
	m.Layers[0].Out = 32
	if err := m.Validate(); err == nil {
		t.Fatal("expected inconsistency before Normalize")
	}
	if err := m.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate after Normalize: %v", err)
	}
	// The second conv's In must now be 32.
	for _, l := range m.Layers[1:] {
		if l.Type == Conv {
			if l.In != 32 {
				t.Fatalf("downstream conv In = %d, want 32", l.In)
			}
			break
		}
	}
}

// The cost table's OutBytes is the wire size of each cut point's activation
// at BytesPerElement (4 B) per element.
func TestFeatureBytes(t *testing.T) {
	m := &Model{
		Name: "fb", Input: Shape{C: 3, H: 8, W: 8}, Classes: 10,
		Layers: []Layer{NewConv(3, 16, 3, 1, 1), NewFlatten(), NewFC(1024, 10)},
	}
	if in := m.Input.Bytes(); in != 3*8*8*4 {
		t.Fatalf("input bytes = %d", in)
	}
	rows, err := m.Costs()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{16 * 8 * 8 * 4, 1024 * 4, 10 * 4} {
		if rows[i].OutBytes != want || rows[i].OutBytes != rows[i].Out.Bytes() {
			t.Fatalf("layer-%d bytes = %d, want %d", i, rows[i].OutBytes, want)
		}
	}
	bad := &Model{Name: "bad", Input: Shape{C: 3, H: 8, W: 8}, Layers: []Layer{NewFC(7, 10)}}
	if _, err := bad.Costs(); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestHashDistinguishesArchitectures(t *testing.T) {
	a := VGG11(CIFARInput, CIFARClasses)
	b := VGG11(CIFARInput, CIFARClasses)
	if a.Hash() != b.Hash() {
		t.Fatal("identical architectures must hash equal")
	}
	b.Layers[0].Out = 48
	if a.Hash() == b.Hash() {
		t.Fatal("different architectures must hash differently")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := AlexNet(CIFARInput, CIFARClasses)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != m.Hash() {
		t.Fatal("JSON round trip changed the architecture hash")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := VGG11(CIFARInput, CIFARClasses)
	c := m.Clone()
	c.Layers[0].Out = 7
	if m.Layers[0].Out == 7 {
		t.Fatal("clone shares layer storage")
	}
}

func TestSummary(t *testing.T) {
	m := VGG11(CIFARInput, CIFARClasses)
	s, err := m.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"VGG11", "Conv,3,1,1,64", "total", "storage"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	bad := &Model{Name: "bad", Input: CIFARInput, Layers: []Layer{NewFC(1, 1)}}
	if _, err := bad.Summary(); err == nil {
		t.Fatal("expected error for inconsistent model")
	}
}

func TestParamBytesQuantization(t *testing.T) {
	m := VGG11(CIFARInput, CIFARClasses)
	full, err := m.ParamBytes()
	if err != nil {
		t.Fatal(err)
	}
	params, err := m.Params()
	if err != nil {
		t.Fatal(err)
	}
	if full != params*4 {
		t.Fatalf("fp32 bytes = %d, want params*4 = %d", full, params*4)
	}
	q := m.Clone()
	for i := range q.Layers {
		if q.Layers[i].HasWeights() {
			q.Layers[i].Bits = 8
		}
	}
	qBytes, err := q.ParamBytes()
	if err != nil {
		t.Fatal(err)
	}
	if qBytes*4 != full {
		t.Fatalf("8-bit storage %d must be a quarter of %d", qBytes, full)
	}
}
