package nn

import (
	"math/rand"
	"testing"

	"cadmc/internal/parallel"
	"cadmc/internal/tensor"
)

// benchNet is a conv→pool→fc stack big enough that the batched forward pass
// spends real time in every parallelised kernel.
func benchNet(b *testing.B) *Net {
	b.Helper()
	m := &Model{
		Name:    "benchnet",
		Input:   Shape{C: 8, H: 24, W: 24},
		Classes: 10,
		Layers: []Layer{
			NewConv(8, 16, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2, 2),
			NewConv(16, 32, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2, 2),
			NewFlatten(),
			NewFC(32*6*6, 64),
			NewReLU(),
			NewFC(64, 10),
		},
	}
	net, err := NewNet(m, rand.New(rand.NewSource(41)))
	if err != nil {
		b.Fatal(err)
	}
	return net
}

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

func BenchmarkForwardBatch(b *testing.B) {
	net := benchNet(b)
	rng := rand.New(rand.NewSource(42))
	xs := make([]*tensor.Tensor, 16)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, 8, 24, 24)
	}
	maccs, err := net.Model.MACCs()
	if err != nil {
		b.Fatal(err)
	}
	benchModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.ForwardBatch(xs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(int64(len(xs))*maccs), "ns/macc")
	})
}

func BenchmarkTrainSample(b *testing.B) {
	net := benchNet(b)
	x := tensor.Randn(rand.New(rand.NewSource(43)), 1, 8, 24, 24)
	g := net.NewGrads()
	benchModes(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainSample(x, i%10, nil, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}
