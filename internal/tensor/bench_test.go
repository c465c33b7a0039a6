package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"cadmc/internal/lane"
	"cadmc/internal/parallel"
)

// benchModes runs fn once per execution mode: serial (pool pinned off) and
// parallel (pool on).
func benchModes(b *testing.B, fn func(b *testing.B)) {
	for _, m := range []struct {
		name   string
		serial bool
	}{
		{"serial", true},
		{"parallel", false},
	} {
		b.Run(m.name, func(b *testing.B) {
			defer parallel.SetSerial(parallel.SetSerial(m.serial))
			b.ReportAllocs()
			fn(b)
		})
	}
}

// reportMACC adds the kernel's own unit to a benchmark line: nanoseconds per
// multiply-accumulate, the quantity the latency model bills (Eq. 4–6).
func reportMACC(b *testing.B, maccs int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(maccs), "ns/macc")
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	x := Randn(rng, 1, 192, 256)
	y := Randn(rng, 1, 256, 192)
	benchModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MatMul(x, y); err != nil {
				b.Fatal(err)
			}
		}
		reportMACC(b, 192*256*192)
	})
}

// BenchmarkGemmServingShapes is the per-shape table of DESIGN §9: the GEMMs
// (m×k×n) of the served VGG11 variant — its stem convolution, Fire squeezes
// and expands from 16×16 planes down to 2×2, and its fully-connected layers
// alone and as a batch of eight — on the portable 2×4 kernel ("go") and on
// the AVX lane kernel where this CPU has one. Run with -cpu 1 to compare
// kernels.
func BenchmarkGemmServingShapes(b *testing.B) {
	defer lane.SetAVX(lane.SetAVX(false))
	for _, avx := range []bool{false, true} {
		if lane.SetAVX(avx); avx != lane.AVX() {
			continue
		}
		path := "go"
		if avx {
			path = "avx"
		}
		rng := rand.New(rand.NewSource(34))
		for _, s := range [][3]int{
			{64, 27, 1024}, {16, 64, 256}, {64, 16, 256}, {64, 144, 256}, {128, 288, 64},
			{256, 576, 16}, {64, 512, 4}, {256, 64, 4}, {256, 576, 4}, {512, 512, 1}, {512, 512, 8},
		} {
			m, k, n := s[0], s[1], s[2]
			x, y, dst := Randn(rng, 1, m, k), Randn(rng, 1, k, n), New(m, n)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", path, m, k, n), func(b *testing.B) {
				lane.SetAVX(avx)
				for i := 0; i < b.N; i++ {
					if err := MatMulInto(x, y, dst); err != nil {
						b.Fatal(err)
					}
				}
				reportMACC(b, m*k*n)
			})
		}
	}
}

func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	cs := ConvShape{InC: 16, InH: 32, InW: 32, OutC: 32, Kernel: 3, Stride: 1, Padding: 1}
	input := Randn(rng, 1, 16, 32, 32)
	weights := Randn(rng, 1, 32, 16*3*3)
	bias := Randn(rng, 1, 32)
	benchModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Conv2D(input, weights, bias, cs); err != nil {
				b.Fatal(err)
			}
		}
		reportMACC(b, 32*16*3*3*32*32)
	})
}

func BenchmarkTruncatedSVD(b *testing.B) {
	base := Randn(rand.New(rand.NewSource(33)), 1, 128, 96)
	benchModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TruncatedSVD(base, 8, 20, rand.New(rand.NewSource(7))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
