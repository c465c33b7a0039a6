package tensor

import (
	"math/rand"
	"testing"

	"cadmc/internal/parallel"
)

// benchModes runs fn once per execution mode: serial (pool pinned off),
// parallel (pool on, fresh allocations), and parallel+arena (pool on,
// scratch transients recycled).
func benchModes(b *testing.B, fn func(b *testing.B)) {
	for _, m := range []struct {
		name          string
		serial, arena bool
	}{
		{"serial", true, false},
		{"parallel", false, false},
		{"parallel_arena", false, true},
	} {
		b.Run(m.name, func(b *testing.B) {
			prevS := parallel.SetSerial(m.serial)
			prevA := parallel.SetArena(m.arena)
			defer func() {
				parallel.SetSerial(prevS)
				parallel.SetArena(prevA)
			}()
			b.ReportAllocs()
			fn(b)
		})
	}
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
	})
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
