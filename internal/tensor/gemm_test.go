package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cadmc/internal/lane"
)

// withKernel runs f with the GEMM on the portable 2×4 kernel, then on the AVX
// lane kernel where this CPU has one.
func withKernel(t *testing.T, f func(t *testing.T)) {
	defer lane.SetAVX(lane.SetAVX(false))
	for _, avx := range []bool{false, true} {
		if lane.SetAVX(avx); avx != lane.AVX() {
			t.Log("no AVX on this CPU: only the portable kernel ran")
			continue
		}
		name := "go"
		if avx {
			name = "avx"
		}
		t.Run(name, f)
	}
}

// naiveBatchConv is the definition the GEMM is held to: sample b's output
// element (o, y, x) is one serial sum over p = (channel, ky, kx) ascending,
// from the bias (BiasFirst) or +0, a padding position adding its weight
// times 0 like any other term; then the bias added (otherwise) and ReLU.
func naiveBatchConv(dst []float64, dstStride int, src []float64, srcStride, batch int, w []float64, cs ConvShape, ep Epilogue) {
	outH, outW := cs.OutHW()
	kk := cs.InC * cs.Kernel * cs.Kernel
	for b := 0; b < batch; b++ {
		for o := 0; o < cs.OutC; o++ {
			for y := 0; y < outH; y++ {
				for x := 0; x < outW; x++ {
					s := 0.0
					if ep.Bias != nil && ep.BiasFirst {
						s = ep.Bias[o]
					}
					p := 0
					for ch := 0; ch < cs.InC; ch++ {
						for ky := 0; ky < cs.Kernel; ky++ {
							for kx := 0; kx < cs.Kernel; kx++ {
								v := 0.0
								iy, ix := y*cs.Stride-cs.Padding+ky, x*cs.Stride-cs.Padding+kx
								if iy >= 0 && iy < cs.InH && ix >= 0 && ix < cs.InW {
									v = src[b*srcStride+(ch*cs.InH+iy)*cs.InW+ix]
								}
								s += float64(w[o*kk+p] * v)
								p++
							}
						}
					}
					if ep.Bias != nil && !ep.BiasFirst {
						s += ep.Bias[o]
					}
					if ep.ReLU && s < 0 {
						s = 0
					}
					dst[b*dstStride+(o*outH+y)*outW+x] = s
				}
			}
		}
	}
}

// TestGemmWidePanelsMatchNaive holds both micro-kernels to the naive loop
// bit for bit at GOMAXPROCS 1 and 4: column counts on either side of one and
// two 16-wide panels, a k that puts one panel in each column block, odd m,
// batches of planes whose panels cross row, plane and sample boundaries
// (gaps between the samples in src and dst), windows wider than a panel's
// row, runs of a column or two inside the padding at either edge of a src
// with nothing after it, strides of 2, and every epilogue.
// Weights carry exact zeros and −0; dst starts as NaN, and its gaps must
// keep their sentinel.
func TestGemmWidePanelsMatchNaive(t *testing.T) {
	type tc struct {
		name  string
		cs    ConvShape
		batch int
		tight bool // src holds the samples back to back, nothing after the last
	}
	var cases []tc
	for _, n := range []int{15, 16, 17, 31, 32, 33} {
		for _, mk := range [][2]int{{1, 9}, {3, 40}, {4, 2100}} {
			cases = append(cases, tc{fmt.Sprintf("matrix %dx%dx%d", mk[0], mk[1], n),
				ConvShape{InC: mk[1], InH: 1, InW: n, OutC: mk[0], Kernel: 1, Stride: 1}, 1, false})
		}
	}
	cases = append(cases,
		tc{"3x3 pad 1 over a batch of 3 5x5 planes", ConvShape{InC: 2, InH: 5, InW: 5, OutC: 5, Kernel: 3, Stride: 1, Padding: 1}, 3, false},
		tc{"1x1 over a batch of 3 5x5 planes", ConvShape{InC: 6, InH: 5, InW: 5, OutC: 3, Kernel: 1, Stride: 1}, 3, false},
		tc{"3x3 stride 2 over a batch of 3 9x9 planes", ConvShape{InC: 3, InH: 9, InW: 9, OutC: 7, Kernel: 3, Stride: 2, Padding: 1}, 3, false},
		tc{"1x1 stride 2 over a batch of 3 9x9 planes", ConvShape{InC: 4, InH: 9, InW: 9, OutC: 3, Kernel: 1, Stride: 2}, 3, false},
		tc{"5x5 pad 2 over a batch of 2 4x20 planes", ConvShape{InC: 2, InH: 4, InW: 20, OutC: 3, Kernel: 5, Stride: 1, Padding: 2}, 2, false},
		// Row 1 starts at column 15: a one-column run at ox = 0 whose first
		// two window columns lie in the left padding.
		tc{"5x5 pad 2 over a 15x15 plane", ConvShape{InC: 2, InH: 15, InW: 15, OutC: 3, Kernel: 5, Stride: 1, Padding: 2}, 1, true},
		// One output per sample: every run is one column, its window mostly padding.
		tc{"5x5 pad 2 over a batch of 3 1x1 planes", ConvShape{InC: 3, InH: 1, InW: 1, OutC: 2, Kernel: 5, Stride: 1, Padding: 2}, 3, true},
		// Column 48, the last, starts panel 3: a run at the last column of
		// the last row of the last sample, whose window ends past src.
		tc{"5x5 pad 2 over a 7x7 plane", ConvShape{InC: 2, InH: 7, InW: 7, OutC: 3, Kernel: 5, Stride: 1, Padding: 2}, 1, true},
	)
	rng := rand.New(rand.NewSource(53))
	withKernel(t, func(t *testing.T) {
		for _, c := range cases {
			cs := c.cs
			outH, outW := cs.OutHW()
			kk := cs.InC * cs.Kernel * cs.Kernel
			srcStride, dstStride := cs.InC*cs.InH*cs.InW+7, cs.OutC*outH*outW+5
			if c.tight {
				srcStride = cs.InC * cs.InH * cs.InW
			}
			src := randTensor(rng, c.batch*srcStride).Data
			w := randTensor(rng, cs.OutC*kk).Data
			for i := 0; i < len(w); i += 5 {
				w[i] = 0
			}
			w[len(w)-1] = math.Copysign(0, -1)
			bias := randTensor(rng, cs.OutC).Data
			for _, ep := range []Epilogue{
				{}, {ReLU: true}, {Bias: bias}, {Bias: bias, ReLU: true},
				{Bias: bias, BiasFirst: true}, {Bias: bias, BiasFirst: true, ReLU: true},
			} {
				want := make([]float64, c.batch*dstStride)
				for i := range want {
					want[i] = 7 // the gaps' sentinel
				}
				naiveBatchConv(want, dstStride, src, srcStride, c.batch, w, cs, ep)
				for _, procs := range []int{1, 4} {
					atProcs(t, procs, func() {
						got := make([]float64, len(want))
						for i := range got {
							got[i] = math.NaN()
						}
						for b := 0; b < c.batch; b++ {
							for i := cs.OutC * outH * outW; i < dstStride; i++ {
								got[b*dstStride+i] = 7
							}
						}
						new(Workspace).Conv2D(got, dstStride, src, srcStride, c.batch, w, cs, ep)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s, bias %v first %v relu %v, procs %d: element %d is %v, naive loop says %v",
									c.name, ep.Bias != nil, ep.BiasFirst, ep.ReLU, procs, i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	})
}

// A warm Workspace runs a layer without allocating at any GOMAXPROCS: its
// panels, closures and the parallel.Job that fans them out are its own. At
// GOMAXPROCS 4 both the pack and the row tiles fan out here.
func TestConv2DWarmWorkspaceAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cs := ConvShape{InC: 8, InH: 16, InW: 16, OutC: 32, Kernel: 3, Stride: 1, Padding: 1}
	outH, outW := cs.OutHW()
	src := randTensor(rng, 2*cs.InC*cs.InH*cs.InW).Data
	w := randTensor(rng, cs.OutC*cs.InC*9).Data
	dst := make([]float64, 2*cs.OutC*outH*outW)
	atProcs(t, 4, func() {
		var ws Workspace
		run := func() {
			ws.Conv2D(dst, cs.OutC*outH*outW, src, cs.InC*cs.InH*cs.InW, 2, w, cs, Epilogue{ReLU: true})
		}
		run()
		// Counted by hand: testing.AllocsPerRun pins GOMAXPROCS to 1. The
		// count is process-wide, so allow a few stray runtime allocations.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			run()
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > 10 {
			t.Errorf("%d allocations over 20 warm Conv2D calls at GOMAXPROCS 4, want 0", n)
		}
	})
}
