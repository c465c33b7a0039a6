package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cadmc/internal/tensor"
)

// The executor's contract is bit identity: one plan, one kernel, one
// accumulation order, whatever the entry point, cut, batch size or worker
// count. Everything here compares math.Float64bits.

func sameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) || fmt.Sprint(got.Shape) != fmt.Sprint(want.Shape) {
		t.Fatalf("%s: shape %v (%d), want %v (%d)", label, got.Shape, len(got.Data), want.Shape, len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

// kindModels is one small net per layer kind compression can introduce, each
// with ragged planes (7×5) so panels straddle samples and rows.
func kindModels() []*Model {
	in := Shape{C: 3, H: 7, W: 5}
	head := func(c int) []Layer { return []Layer{NewGlobalAvgPool(), NewFlatten(), NewFC(c, 4)} }
	build := func(name string, body ...Layer) *Model {
		return &Model{Name: name, Input: in, Classes: 4, Layers: body}
	}
	return []*Model{
		build("fire", append([]Layer{NewConv(3, 6, 3, 1, 1), NewReLU(), NewFire(6, 3, 9), NewReLU(), NewMaxPool(2, 1), NewFire(9, 2, 6)}, head(6)...)...),
		build("depthwise", append([]Layer{NewConv(3, 5, 3, 1, 1), NewReLU(), NewDepthwiseConv(5, 3, 2, 1), NewConv(5, 8, 1, 1, 0), NewReLU()}, head(8)...)...),
		build("batchnorm", append([]Layer{NewConv(3, 4, 3, 1, 1), NewBatchNorm(), NewReLU(), NewMaxPool(2, 2), NewConv(4, 6, 3, 1, 1), NewBatchNorm(), NewDropout()}, head(6)...)...),
		build("add", append([]Layer{NewConv(3, 4, 3, 1, 1), NewReLU(), NewConv(4, 4, 3, 1, 1), NewBatchNorm(), NewAdd(1), NewReLU(), NewConv(4, 4, 1, 1, 0), NewAdd(5)}, head(4)...)...),
		build("projadd", append([]Layer{NewConv(3, 4, 3, 1, 1), NewReLU(), NewConv(4, 6, 3, 2, 1), NewProjAdd(1, 4, 6, 2), NewReLU(), NewProjAdd(4, 6, 6, 1), NewConv(6, 8, 1, 1, 0), NewProjAdd(5, 6, 8, 1)}, head(8)...)...),
		// 64 channels in: a 3×3 window is 576 rows, so a column block holds 56
		// columns and a batch of three 7×5 planes spans two of them.
		build("wide", append([]Layer{NewConv(3, 64, 3, 1, 1), NewReLU(), NewConv(64, 6, 3, 1, 1), NewReLU()}, head(6)...)...),
		build("flat", NewConv(3, 4, 3, 2, 1), NewReLU(), NewFlatten(), NewFC(4*4*3, 9), NewReLU(), NewDropout(), NewFC(9, 4)),
	}
}

// testNet seeds every parameter, biases and BatchNorm affines included, away
// from its initial value; with zeros it also plants exact zeros and a −0 in
// each weight tensor.
func testNet(t testing.TB, m *Model, seed int64, zeros bool) *Net {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := NewNet(m, rng)
	if err != nil {
		t.Fatal(err)
	}
	var weights, others []*tensor.Tensor
	for i, w := range net.Weights {
		if w != nil {
			weights, others = append(weights, w), append(others, net.Biases[i])
		}
	}
	for _, fp := range net.FireAt {
		weights = append(weights, fp.SqueezeW, fp.E1W, fp.E3W)
		others = append(others, fp.SqueezeB, fp.E1B, fp.E3B)
	}
	for _, b := range others {
		for j := range b.Data {
			b.Data[j] = rng.NormFloat64() * 0.3
		}
	}
	for _, w := range weights {
		if len(w.Shape) == 1 { // BatchNorm gamma
			for j := range w.Data {
				w.Data[j] = 1 + rng.NormFloat64()*0.3
			}
		}
		if zeros {
			tensor.Sparsify(w, 0.3)
			w.Data[len(w.Data)/2] = math.Copysign(0, -1)
		}
	}
	return net
}

func testInputs(m *Model, seed int64, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.Randn(rng, 1, m.Input.C, m.Input.H, m.Input.W)
	}
	return xs
}

// naiveForward is the independent definition of every layer's arithmetic:
// plain loops, each sum serial over ascending (channel, ky, kx) with padding
// as an explicit zero operand, conv adding its bias last and FC first.
func naiveForward(net *Net, x *tensor.Tensor) *tensor.Tensor {
	conv := func(in []float64, s Shape, w, bias []float64, outC, k, stride, pad int) ([]float64, Shape) {
		o := Shape{C: outC, H: (s.H+2*pad-k)/stride + 1, W: (s.W+2*pad-k)/stride + 1}
		out := make([]float64, o.Elems())
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < o.H; oy++ {
				for ox := 0; ox < o.W; ox++ {
					sum, p := 0.0, oc*s.C*k*k
					for c := 0; c < s.C; c++ {
						for ky := 0; ky < k; ky++ {
							for kx := 0; kx < k; kx++ {
								v, iy, ix := 0.0, oy*stride+ky-pad, ox*stride+kx-pad
								if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
									v = in[(c*s.H+iy)*s.W+ix]
								}
								sum += w[p] * v
								p++
							}
						}
					}
					out[(oc*o.H+oy)*o.W+ox] = sum + bias[oc]
				}
			}
		}
		return out, o
	}
	relu := func(v []float64) {
		for j := range v {
			if v[j] < 0 {
				v[j] = 0
			}
		}
	}
	cur, s := append([]float64(nil), x.Data...), net.Model.Input
	outs := make([][]float64, len(net.Model.Layers))
	shapes := make([]Shape, len(net.Model.Layers))
	for i, l := range net.Model.Layers {
		switch l.Type {
		case Conv:
			cur, s = conv(cur, s, net.Weights[i].Data, net.Biases[i].Data, l.Out, l.Kernel, l.Stride, l.Padding)
		case DepthwiseConv:
			var out []float64
			var o Shape
			for c := 0; c < l.Out; c++ {
				kk, hw := l.Kernel*l.Kernel, s.H*s.W
				var ch []float64
				ch, o = conv(cur[c*hw:(c+1)*hw], Shape{C: 1, H: s.H, W: s.W}, net.Weights[i].Data[c*kk:(c+1)*kk], net.Biases[i].Data[c:c+1], 1, l.Kernel, l.Stride, l.Padding)
				out = append(out, ch...)
			}
			cur, s = out, Shape{C: l.Out, H: o.H, W: o.W}
		case Fire:
			fp := net.FireAt[i]
			act, as := conv(cur, s, fp.SqueezeW.Data, fp.SqueezeB.Data, l.Squeeze, 1, 1, 0)
			relu(act)
			e1, _ := conv(act, as, fp.E1W.Data, fp.E1B.Data, l.Out/2, 1, 1, 0)
			e3, _ := conv(act, as, fp.E3W.Data, fp.E3B.Data, l.Out-l.Out/2, 3, 1, 1)
			cur, s = append(e1, e3...), Shape{C: l.Out, H: s.H, W: s.W}
		case FC:
			out := make([]float64, l.Out)
			for o := range out {
				sum := net.Biases[i].Data[o]
				for j, v := range cur {
					sum += net.Weights[i].Data[o*l.In+j] * v
				}
				out[o] = sum
			}
			cur, s = out, Shape{C: l.Out, H: 1, W: 1}
		case ReLU:
			cur = append([]float64(nil), cur...)
			relu(cur)
		case BatchNorm:
			out := make([]float64, len(cur))
			for j, v := range cur {
				c := j / (s.H * s.W)
				out[j] = net.Weights[i].Data[c]*v + net.Biases[i].Data[c]
			}
			cur = out
		case MaxPool:
			o := Shape{C: s.C, H: (s.H-l.Kernel)/l.Stride + 1, W: (s.W-l.Kernel)/l.Stride + 1}
			out := make([]float64, o.Elems())
			for c := 0; c < s.C; c++ {
				for oy := 0; oy < o.H; oy++ {
					for ox := 0; ox < o.W; ox++ {
						best := cur[(c*s.H+oy*l.Stride)*s.W+ox*l.Stride]
						for ky := 0; ky < l.Kernel; ky++ {
							for kx := 0; kx < l.Kernel; kx++ {
								if v := cur[(c*s.H+oy*l.Stride+ky)*s.W+ox*l.Stride+kx]; v > best {
									best = v
								}
							}
						}
						out[(c*o.H+oy)*o.W+ox] = best
					}
				}
			}
			cur, s = out, o
		case GlobalAvgPool:
			out := make([]float64, s.C)
			for c := range out {
				sum := 0.0
				for _, v := range cur[c*s.H*s.W : (c+1)*s.H*s.W] {
					sum += v
				}
				out[c] = sum / float64(s.H*s.W)
			}
			cur, s = out, Shape{C: s.C, H: 1, W: 1}
		case Flatten:
			s = Shape{C: s.Elems(), H: 1, W: 1}
		case Dropout:
		case Add:
			skip := outs[l.SkipFrom]
			if l.Out > 0 {
				skip, _ = conv(skip, shapes[l.SkipFrom], net.Weights[i].Data, net.Biases[i].Data, l.Out, 1, l.Stride, 0)
			}
			out := make([]float64, len(cur))
			for j := range out {
				out[j] = cur[j] + skip[j]
			}
			cur = out
		}
		outs[i], shapes[i] = cur, s
	}
	return s.tensorOver(cur)
}

// trainingForward returns what the training path's forward computes for x.
func trainingForward(t *testing.T, net *Net, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	p, err := net.planFor(0, len(net.Model.Layers), true)
	if err != nil {
		t.Fatal(err)
	}
	return net.forward(new(Workspace), p, x).output
}

// checkEveryPath compares, for one net: the batched executor, the training
// forward and per-item ForwardRange, at every legal cut for both halves, at
// each batch size and worker count. want is the logits each input must
// produce; maxCuts > 0 thins the cuts to about that many, evenly spread.
func checkEveryPath(t *testing.T, net *Net, xs, want []*tensor.Tensor, batches, procs []int, maxCuts int) {
	t.Helper()
	m, n := net.Model, len(net.Model.Layers)
	cuts, err := m.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	if maxCuts > 0 && len(cuts) > maxCuts {
		thin := cuts[:0:0]
		for i := 0; i < maxCuts; i++ {
			thin = append(thin, cuts[i*(len(cuts)-1)/(maxCuts-1)])
		}
		cuts = thin
	}
	sameBits(t, m.Name+" training forward", trainingForward(t, net, xs[0]), want[0])
	// Per-item prefixes at one worker are the reference for batched ones.
	prefix := make(map[int][]*tensor.Tensor)
	for _, c := range cuts {
		for _, x := range xs {
			act, err := net.ForwardRange(x, 0, c+1)
			if err != nil {
				t.Fatalf("%s cut %d: %v", m.Name, c, err)
			}
			prefix[c] = append(prefix[c], act)
		}
	}
	for _, p := range procs {
		prev := runtime.GOMAXPROCS(p)
		for _, b := range batches {
			label := fmt.Sprintf("%s procs %d batch %d", m.Name, p, b)
			full, err := net.ForwardBatch(xs[:b])
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i := range full {
				sameBits(t, label+" full", full[i], want[i])
			}
			for _, c := range cuts {
				pre, err := net.ForwardRangeBatch(xs[:b], 0, c+1)
				if err != nil {
					t.Fatalf("%s cut %d: %v", label, c, err)
				}
				suf, err := net.ForwardRangeBatch(pre, c+1, n)
				if err != nil {
					t.Fatalf("%s cut %d suffix: %v", label, c, err)
				}
				for i := range pre {
					sameBits(t, fmt.Sprintf("%s cut %d prefix", label, c), pre[i], prefix[c][i])
					sameBits(t, fmt.Sprintf("%s cut %d suffix", label, c), suf[i], want[i])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestExecutorDeterminismEveryKind: every layer kind, dense weights and
// weights with exact zeros and −0, against the naive definition.
func TestExecutorDeterminismEveryKind(t *testing.T) {
	for _, m := range kindModels() {
		for _, zeros := range []bool{false, true} {
			net := testNet(t, m, 31, zeros)
			xs := testInputs(m, 32, 8)
			want := make([]*tensor.Tensor, len(xs))
			for i, x := range xs {
				want[i] = naiveForward(net, x)
			}
			checkEveryPath(t, net, xs, want, []int{1, 3, 8}, []int{1, 2, 4}, 0)
		}
	}
}

// TestExecutorDeterminismZoo: the zoo architectures — real depth, and planes
// wide enough that a batch spans several column blocks — against their own
// single-worker per-item forward. A forward of these costs 15–400 MMACCs, so
// the sweep is a batch of two at two workers (TestExecutorDeterminismEveryKind
// has the cross product): every legal cut for the smallest of each family, a
// spread of four for its deeper siblings, and the first and last under
// -short or the race detector, where the siblings and the VGGs are skipped (the "wide"
// kind model keeps the multi-block path covered there).
func TestExecutorDeterminismZoo(t *testing.T) {
	tiny := Shape{C: 3, H: 4, W: 4} // ResNets take any input; VGG and AlexNet need CIFAR's
	quick := raceEnabled || testing.Short()
	for _, z := range []struct {
		name    string
		in      Shape
		maxCuts int
	}{
		{"AlexNet", CIFARInput, 0},
		{"ResNet50", tiny, 0},
		{"VGG11", CIFARInput, 0},
		{"VGG19", CIFARInput, 4},
		{"ResNet101", tiny, 4},
		{"ResNet152", tiny, 4},
	} {
		if quick {
			if z.maxCuts > 0 || z.name == "VGG11" {
				continue
			}
			z.maxCuts = 2
		}
		m, err := Zoo(z.name, z.in, CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Normalize(); err != nil {
			t.Fatal(err)
		}
		net := testNet(t, m, 33, false)
		xs := testInputs(m, 34, 2)
		want := make([]*tensor.Tensor, len(xs))
		prev := runtime.GOMAXPROCS(1)
		for i, x := range xs {
			if want[i], err = net.Forward(x); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GOMAXPROCS(prev)
		checkEveryPath(t, net, xs, want, []int{2}, []int{2}, z.maxCuts)
	}
}

// TestExecutorDeterminismWithDirtySlab extends tensor's
// TestConv2DDeterminismWithReusedWorkspace to the workspace slab: a forward
// over a slab full of NaN yields the same bits, so every float a step reads
// was written first and a reused workspace needs no zeroing.
func TestExecutorDeterminismWithDirtySlab(t *testing.T) {
	for _, m := range kindModels() {
		net := testNet(t, m, 35, false)
		xs := testInputs(m, 36, 3)
		want, err := net.ForwardBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, keep := range []bool{false, true} {
			p, err := net.planFor(0, len(m.Layers), keep)
			if err != nil {
				t.Fatal(err)
			}
			slab := make([]float64, p.slabLen(len(xs)))
			for i := range slab {
				slab[i] = math.NaN()
			}
			got := net.execute(p, xs, slab)
			for b := range xs {
				n := len(want[b].Data)
				sameBits(t, fmt.Sprintf("%s keep=%v item %d", m.Name, keep, b), p.out().tensorOver(got[b*n:(b+1)*n]), want[b])
			}
		}
	}
}

// hostileModel has each kind that used to index its input's shape unchecked
// as the first layer after some cut.
func hostileModel() *Model {
	return &Model{Name: "hostile", Input: Shape{C: 4, H: 6, W: 6}, Classes: 3, Layers: []Layer{
		NewFire(4, 2, 6),             // 0
		NewDepthwiseConv(6, 3, 1, 1), // 1
		NewProjAdd(1, 6, 6, 1),       // 2: skip source is the boundary activation itself
		NewBatchNorm(),               // 3
		NewMaxPool(2, 2),             // 4
		NewConv(6, 5, 3, 1, 1),       // 5
		NewGlobalAvgPool(),           // 6
		NewFlatten(),                 // 7
		NewFC(5, 3),                  // 8
	}}
}

// TestForwardRejectsHostileShapes: an activation off the wire declares its
// own shape. Whatever layer runs first, a wrong one is an error naming the
// batch index — before any kernel runs, never a panic.
func TestForwardRejectsHostileShapes(t *testing.T) {
	m := hostileModel()
	net := testNet(t, m, 37, false)
	dims, err := m.InferDims()
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{0, 1, 2, 3, 4, 6, 8} {
		in := dims[from].In
		good := tensor.New(in.C, in.H, in.W)
		if _, err := net.ForwardRangeBatch([]*tensor.Tensor{good, good}, from, len(m.Layers)); err != nil {
			t.Fatalf("from %d (%s): well-shaped input refused: %v", from, m.Layers[from].Type, err)
		}
		for name, bad := range map[string]*tensor.Tensor{
			"nil":      nil,
			"rank-1":   tensor.New(in.Elems()),
			"rank-2":   tensor.New(in.C, in.H*in.W),
			"wrong-C":  tensor.New(in.C+1, in.H, in.W),
			"wrong-HW": tensor.New(in.C, in.H+1, in.W),
			"short":    {Shape: []int{in.C, in.H, in.W}, Data: make([]float64, in.Elems()-1)},
		} {
			label := fmt.Sprintf("from %d (%s) %s", from, m.Layers[from].Type, name)
			if _, err := net.ForwardRangeBatch([]*tensor.Tensor{good, bad}, from, len(m.Layers)); err == nil || !strings.Contains(err.Error(), "batch index 1") {
				t.Errorf("%s in a batch: err = %v, want one naming batch index 1", label, err)
			}
			if _, err := net.ForwardRange(bad, from, len(m.Layers)); err == nil {
				t.Errorf("%s alone was accepted", label)
			}
		}
	}
	// The reproduction from the issue: a rank-1 activation into a cut that
	// precedes a Fire.
	if _, err := net.ForwardRangeBatch([]*tensor.Tensor{tensor.New(4 * 6 * 6)}, 0, len(m.Layers)); err == nil {
		t.Fatal("rank-1 activation ahead of a Fire was accepted")
	}
}

// TestPlanCacheConcurrentFirstUse: the plan cache and the slabs are reached
// from every gateway worker and server connection sharing a Net. Sixteen
// goroutines race the first use of mixed ranges and batch sizes on one Net;
// every result must match a serial reference computed on its twin.
func TestPlanCacheConcurrentFirstUse(t *testing.T) {
	m := kindModels()[3] // residual: skips held across slots
	shared, twin := testNet(t, m, 39, false), testNet(t, m, 39, false)
	xs := testInputs(m, 40, 8)
	cuts, err := m.CutPoints()
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		from, to, batch int
		in, want        []*tensor.Tensor
	}
	var jobs []job
	for i, c := range cuts {
		b := 1 + i%len(xs)
		pre, err := twin.ForwardRangeBatch(xs[:b], 0, c+1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{0, c + 1, b, xs[:b], pre})
		if c+1 < len(m.Layers) {
			suf, err := twin.ForwardRangeBatch(pre, c+1, len(m.Layers))
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job{c + 1, len(m.Layers), b, pre, suf})
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range jobs {
				j := jobs[(k+g)%len(jobs)]
				got, err := shared.ForwardRangeBatch(j.in, j.from, j.to)
				if err != nil {
					t.Errorf("goroutine %d [%d,%d): %v", g, j.from, j.to, err)
					return
				}
				for i := range got {
					for e := range got[i].Data {
						if math.Float64bits(got[i].Data[e]) != math.Float64bits(j.want[i].Data[e]) {
							t.Errorf("goroutine %d [%d,%d) batch %d item %d differs from the serial reference", g, j.from, j.to, j.batch, i)
							return
						}
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestForwardAllocationFloor: in steady state a batched forward allocates the
// tensors it returns and a small constant — nothing per layer. AllocsPerRun
// pins GOMAXPROCS to 1, so this is the executor's own floor; a fanned-out
// parallel.For adds its bookkeeping on top. The race detector's runtime
// changes what allocates, so under it only the forwards run.
func TestForwardAllocationFloor(t *testing.T) {
	deep := func(blocks int) *Net {
		m := &Model{Name: "floor", Input: Shape{C: 4, H: 8, W: 8}, Classes: 5}
		m.Layers = []Layer{NewConv(4, 8, 3, 1, 1), NewReLU()}
		for i := 0; i < blocks; i++ {
			m.Layers = append(m.Layers, NewFire(8, 3, 8), NewBatchNorm(), NewReLU())
		}
		m.Layers = append(m.Layers, NewMaxPool(2, 2), NewFlatten(), NewFC(8*4*4, 16), NewReLU(), NewFC(16, 5))
		return testNet(t, m, 41, false)
	}
	const batch = 8
	measure := func(net *Net) (allocs float64, bytes uint64) {
		xs := testInputs(net.Model, 42, batch)
		run := func() {
			if _, err := net.ForwardBatch(xs); err != nil {
				t.Fatal(err)
			}
		}
		run() // compile the plan, mint the slab
		allocs = testing.AllocsPerRun(20, run)
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 20
	}
	shallowAllocs, shallowBytes := measure(deep(2))
	deepAllocs, deepBytes := measure(deep(12))
	t.Logf("batch of %d: %v allocs / %d B at 2 blocks, %v allocs / %d B at 12", batch, shallowAllocs, shallowBytes, deepAllocs, deepBytes)
	if raceEnabled {
		return
	}
	// Returned: the slice, one backing array, a Tensor and a Shape per item.
	// Nothing else: the Net's workspace, its bound closures and the plan are
	// warm, and the GEMM's accumulators live on the stack.
	const returned = 2 + 2*batch
	if deepAllocs != shallowAllocs || deepAllocs > returned {
		t.Errorf("allocs per forward: %v at 2 blocks, %v at 12; want equal and <= %d", shallowAllocs, deepAllocs, returned)
	}
	const returnedBytes = batch * (5*8 + 3*8 + 48 + 8) // logits, shape, tensor header, slice slot
	if deepBytes != shallowBytes || deepBytes > returnedBytes+512 {
		t.Errorf("bytes per forward: %d at 2 blocks, %d at 12; want equal and <= %d", shallowBytes, deepBytes, returnedBytes+512)
	}
}

// TestForwardRangeBatchViewMatchesCopy: the views use sees are, bit for bit,
// the tensors ForwardRangeBatch returns, at every prefix range of every layer
// kind; a view re-pointed by use stays use's, and use's error comes back as
// is.
func TestForwardRangeBatchViewMatchesCopy(t *testing.T) {
	for mi, m := range kindModels() {
		net := testNet(t, m, int64(70+mi), true)
		xs := testInputs(m, int64(80+mi), 3)
		for to := 1; to <= len(m.Layers); to++ {
			want, err := net.ForwardRangeBatch(xs, 0, to)
			if err != nil {
				t.Fatal(err)
			}
			err = net.ForwardRangeBatchView(nil, xs, 0, to, func(views []*tensor.Tensor) error {
				if len(views) != len(xs) {
					t.Fatalf("%s [0,%d): %d views for %d inputs", m.Name, to, len(views), len(xs))
				}
				for b, v := range views {
					sameBits(t, fmt.Sprintf("%s [0,%d) item %d", m.Name, to, b), v, want[b])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	net := testNet(t, kindModels()[0], 70, false)
	stop := errors.New("stop")
	if err := net.ForwardRangeBatchView(nil, testInputs(net.Model, 1, 2), 0, 2, func([]*tensor.Tensor) error { return stop }); err != stop {
		t.Fatalf("use's error came back as %v", err)
	}
	if err := net.ForwardRangeBatchView(nil, nil, 0, 2, func([]*tensor.Tensor) error { return nil }); err == nil {
		t.Fatal("empty batch must be an error")
	}
}
