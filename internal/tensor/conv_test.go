package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveConv is a direct-loop reference implementation used to validate the
// im2col path.
func naiveConv(input, weights, bias *Tensor, cs ConvShape) *Tensor {
	outH, outW := cs.OutHW()
	out := New(cs.OutC, outH, outW)
	kk := cs.Kernel * cs.Kernel
	for oc := 0; oc < cs.OutC; oc++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := 0.0
				if bias != nil {
					s = bias.Data[oc]
				}
				for ic := 0; ic < cs.InC; ic++ {
					for ky := 0; ky < cs.Kernel; ky++ {
						for kx := 0; kx < cs.Kernel; kx++ {
							iy := oy*cs.Stride + ky - cs.Padding
							ix := ox*cs.Stride + kx - cs.Padding
							if iy < 0 || iy >= cs.InH || ix < 0 || ix >= cs.InW {
								continue
							}
							w := weights.Data[oc*cs.InC*kk+ic*kk+ky*cs.Kernel+kx]
							s += w * input.Data[ic*cs.InH*cs.InW+iy*cs.InW+ix]
						}
					}
				}
				out.Data[oc*outH*outW+oy*outW+ox] = s
			}
		}
	}
	return out
}

func TestConv2DMatchesNaive(t *testing.T) {
	cases := []ConvShape{
		{InC: 1, InH: 5, InW: 5, OutC: 2, Kernel: 3, Stride: 1, Padding: 0},
		{InC: 3, InH: 8, InW: 8, OutC: 4, Kernel: 3, Stride: 1, Padding: 1},
		{InC: 2, InH: 7, InW: 9, OutC: 3, Kernel: 5, Stride: 2, Padding: 2},
		{InC: 4, InH: 6, InW: 6, OutC: 4, Kernel: 1, Stride: 1, Padding: 0},
	}
	rng := rand.New(rand.NewSource(7))
	for i, cs := range cases {
		input := Randn(rng, 1, cs.InC, cs.InH, cs.InW)
		weights := Randn(rng, 1, cs.OutC, cs.InC*cs.Kernel*cs.Kernel)
		bias := Randn(rng, 1, cs.OutC)
		got, err := Conv2D(input, weights, bias, cs)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := naiveConv(input, weights, bias, cs)
		if len(got.Data) != len(want.Data) {
			t.Fatalf("case %d: size %d vs %d", i, len(got.Data), len(want.Data))
		}
		for j := range got.Data {
			if math.Abs(got.Data[j]-want.Data[j]) > 1e-9 {
				t.Fatalf("case %d: elem %d = %v, want %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}
}

func TestConv2DErrors(t *testing.T) {
	cs := ConvShape{InC: 1, InH: 4, InW: 4, OutC: 2, Kernel: 3, Stride: 1}
	input := New(1, 4, 4)
	if _, err := Conv2D(input, New(2, 5), nil, cs); err == nil {
		t.Fatal("expected weight-shape error")
	}
	if _, err := Conv2D(input, New(2, 9), New(3), cs); err == nil {
		t.Fatal("expected bias-length error")
	}
	if _, err := Im2Col(New(2, 4, 4), cs); err == nil {
		t.Fatal("expected channel-mismatch error")
	}
	tooBig := ConvShape{InC: 1, InH: 2, InW: 2, OutC: 1, Kernel: 5, Stride: 1}
	if _, err := Im2Col(New(1, 2, 2), tooBig); err == nil {
		t.Fatal("expected empty-output error")
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := ConvShape{
			InC: 1 + rng.Intn(3), InH: 4 + rng.Intn(4), InW: 4 + rng.Intn(4),
			OutC: 1, Kernel: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Padding: rng.Intn(2),
		}
		outH, outW := cs.OutHW()
		if outH <= 0 || outW <= 0 {
			return true
		}
		x := Randn(rng, 1, cs.InC, cs.InH, cs.InW)
		y := Randn(rng, 1, cs.InC*cs.Kernel*cs.Kernel, outH*outW)
		cx, err := Im2Col(x, cs)
		if err != nil {
			return false
		}
		left, err := Dot(cx, y)
		if err != nil {
			return false
		}
		cy, err := Col2Im(y, cs)
		if err != nil {
			return false
		}
		right, err := Dot(x, cy)
		if err != nil {
			return false
		}
		return math.Abs(left-right) < 1e-8*(1+math.Abs(left))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPool2D(t *testing.T) {
	input, _ := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, arg, err := MaxPool2D(input, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	grad := New(1, 2, 2)
	for i := range grad.Data {
		grad.Data[i] = 1
	}
	gin, err := MaxPool2DBackward(grad, arg, input.Shape)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the argmax positions receive gradient.
	sum := 0.0
	for _, v := range gin.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("backward gradient mass = %v, want 4", sum)
	}
	if gin.At(0, 1, 1) != 1 || gin.At(0, 3, 3) != 1 {
		t.Fatal("gradient not routed to argmax positions")
	}
}
