package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The tests in this file pin GOMAXPROCS to several values and demand
// bit-identical output from every parallelised kernel. This is the
// determinism contract of internal/parallel: chunked row partitioning must
// never change any element's floating-point summation order, so serial and
// pooled execution produce the same bits, not merely close values. All
// equality checks below are deliberate exact float comparisons.

// atProcs runs fn with GOMAXPROCS pinned to procs and restores it after.
func atProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	tt := New(shape...)
	for i := range tt.Data {
		tt.Data[i] = rng.NormFloat64()
	}
	return tt
}

// assertSameBits fails if a and b differ in any element.
func assertSameBits(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] { //cadmc:allow floateq — bit-exactness is the contract under test
			t.Fatalf("%s: element %d differs: %v vs %v (Δ=%g)", label, i, a[i], b[i], a[i]-b[i])
		}
	}
}

var determinismProcs = []int{2, 3, 4, 8}

func TestMatMulDeterminismAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Odd row count exercises the kernel's one-row last tile; a few exact
	// zeros ride along (their products are summed like any other).
	a := randTensor(rng, 67, 45)
	b := randTensor(rng, 45, 33)
	for i := 0; i < len(a.Data); i += 7 {
		a.Data[i] = 0
	}
	var ref *Tensor
	atProcs(t, 1, func() {
		var err error
		ref, err = MatMul(a, b)
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, procs := range determinismProcs {
		atProcs(t, procs, func() {
			got, err := MatMul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "MatMul", ref.Data, got.Data)
			dst := New(67, 33)
			if err := MatMulInto(a, b, dst); err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "MatMulInto", ref.Data, dst.Data)
		})
	}
}

func TestTransposeDeterminismAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randTensor(rng, 61, 37)
	var ref *Tensor
	atProcs(t, 1, func() {
		var err error
		ref, err = Transpose(a)
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, procs := range determinismProcs {
		atProcs(t, procs, func() {
			got, err := Transpose(a)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "Transpose", ref.Data, got.Data)
		})
	}
}

func TestConvKernelsDeterminismAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cs := ConvShape{InC: 3, InH: 17, InW: 15, OutC: 5, Kernel: 3, Stride: 2, Padding: 1}
	input := randTensor(rng, 3, 17, 15)
	weights := randTensor(rng, 5, 3*3*3)
	bias := randTensor(rng, 5)
	outH, outW := cs.OutHW()
	cols0 := randTensor(rng, 3*3*3, outH*outW)

	var refConv, refCols, refImg *Tensor
	atProcs(t, 1, func() {
		var err error
		if refConv, err = Conv2D(input, weights, bias, cs); err != nil {
			t.Fatal(err)
		}
		if refCols, err = Im2Col(input, cs); err != nil {
			t.Fatal(err)
		}
		if refImg, err = Col2Im(cols0, cs); err != nil {
			t.Fatal(err)
		}
	})
	for _, procs := range determinismProcs {
		atProcs(t, procs, func() {
			conv, err := Conv2D(input, weights, bias, cs)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "Conv2D", refConv.Data, conv.Data)
			cols, err := Im2Col(input, cs)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "Im2Col", refCols.Data, cols.Data)
			img, err := Col2Im(cols0, cs)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "Col2Im", refImg.Data, img.Data)
		})
	}
}

// TestConv2DDeterminismWithReusedWorkspace checks that a reused Workspace — its panel
// scratch left dirty by a bigger convolution, then poisoned with NaN —
// convolves bit for bit as a fresh one: every float the kernel reads was
// written by the pack.
func TestConv2DDeterminismWithReusedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cs := ConvShape{InC: 4, InH: 12, InW: 12, OutC: 6, Kernel: 3, Stride: 1, Padding: 1}
	input := randTensor(rng, 4, 12, 12)
	weights := randTensor(rng, 6, 4*3*3)
	ref, err := Conv2D(input, weights, nil, cs)
	if err != nil {
		t.Fatal(err)
	}
	bigCS := ConvShape{InC: 8, InH: 16, InW: 16, OutC: 3, Kernel: 3, Stride: 1, Padding: 1}
	big, bigW := randTensor(rng, 2, 8, 16, 16), randTensor(rng, 3, 8*3*3)
	var w Workspace
	w.Conv2D(make([]float64, 2*3*16*16), 3*16*16, big.Data, 8*16*16, 2, bigW.Data, bigCS, Epilogue{})
	grown := cap(w.job.panels)
	for round := 0; round < 2; round++ {
		got := New(6, 12, 12)
		w.Conv2D(got.Data, 0, input.Data, 0, 1, weights.Data, cs, Epilogue{})
		assertSameBits(t, fmt.Sprintf("Conv2D(reused workspace, round %d)", round), ref.Data, got.Data)
		if cap(w.job.panels) != grown {
			t.Fatalf("round %d: the smaller convolution regrew the panels from %d to %d", round, grown, cap(w.job.panels))
		}
		panels := w.job.panels[:cap(w.job.panels)]
		for i := range panels {
			panels[i] = math.NaN()
		}
	}
}

func TestMaxPoolDeterminismAcrossProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	input := randTensor(rng, 6, 13, 13)
	// Duplicate a window's max to pin down first-occurrence argmax ties.
	input.Data[1] = input.Data[0]
	var refOut *Tensor
	var refArg []int
	atProcs(t, 1, func() {
		var err error
		refOut, refArg, err = MaxPool2D(input, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, procs := range determinismProcs {
		atProcs(t, procs, func() {
			out, arg, err := MaxPool2D(input, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, "MaxPool2D", refOut.Data, out.Data)
			for i := range arg {
				if arg[i] != refArg[i] {
					t.Fatalf("argmax %d differs: %d vs %d", i, arg[i], refArg[i])
				}
			}
		})
	}
}

func TestTruncatedSVDDeterminismAcrossProcs(t *testing.T) {
	base := randTensor(rand.New(rand.NewSource(16)), 40, 28)
	run := func() *SVDResult {
		res, err := TruncatedSVD(base, 4, 20, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var ref *SVDResult
	atProcs(t, 1, func() { ref = run() })
	for _, procs := range determinismProcs {
		atProcs(t, procs, func() {
			got := run()
			assertSameBits(t, "SVD U", ref.U.Data, got.U.Data)
			assertSameBits(t, "SVD S", ref.S, got.S)
			assertSameBits(t, "SVD V", ref.V.Data, got.V.Data)
		})
	}
}

// TestGemmDeterminismAgainstNaive holds the kernel to the definition of
// accumulation order — each element one serial sum over ascending p from +0 —
// bit for bit, at shapes that leave every tile ragged: odd m (a one-row last
// tile), n off the panel width (zero-padded last panel), k = 1, and weights
// with exact zeros and −0 (the old kernel skipped those products; for finite
// operands skipping changes no bit, and this is what says so).
func TestGemmDeterminismAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, m := range []int{1, 2, 3, 7} {
		for _, n := range []int{1, 3, 4, 5, 8, 17} {
			for _, k := range []int{1, 2, 9, 40} {
				a, b := randTensor(rng, m, k), randTensor(rng, k, n)
				for i := 0; i < len(a.Data); i += 3 {
					a.Data[i] = 0
				}
				a.Data[len(a.Data)-1] = math.Copysign(0, -1)
				want := New(m, n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						s := 0.0
						for p := 0; p < k; p++ {
							s += a.Data[i*k+p] * b.Data[p*n+j]
						}
						want.Data[i*n+j] = s
					}
				}
				for _, procs := range []int{1, 4} {
					atProcs(t, procs, func() {
						got, err := MatMul(a, b)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Data {
							if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
								t.Fatalf("%dx%dx%d procs %d: element %d is %v, naive loop says %v", m, k, n, procs, i, got.Data[i], want.Data[i])
							}
						}
					})
				}
			}
		}
	}
}
