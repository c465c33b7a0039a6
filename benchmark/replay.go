package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"cadmc/internal/core"
	"cadmc/internal/gateway"
	"cadmc/internal/integrity"
	"cadmc/internal/network"
	"cadmc/internal/nn"
	"cadmc/internal/serving"
	"cadmc/internal/telemetry"
	"cadmc/internal/tensor"
)

// stages replays single layers of the request path on the run's own inputs,
// with nothing else running, by calling their public functions directly.
type stages struct {
	inputs []*tensor.Tensor
	// prefixMS caches the replayed edge prefix by variant and batch size.
	prefixMS map[string]map[int]float64
}

// edgePrefixMS is the time ForwardRangeBatch takes over the variant's edge
// half for a batch of b — what gateway.exec spends on compute.
func (s *stages) edgePrefixMS(v *gateway.Variant, b int) (float64, error) {
	if v == nil || b <= 0 || b > len(s.inputs) {
		return 0, fmt.Errorf("edge prefix replay: no variant or batch size %d", b)
	}
	if t, ok := s.prefixMS[v.Sig][b]; ok {
		return t, nil
	}
	d, err := timeMedian(3, once(func() error {
		_, err := v.Net.ForwardRangeBatch(s.inputs[:b], 0, v.Cut+1)
		return err
	}))
	if err != nil {
		return 0, err
	}
	if s.prefixMS[v.Sig] == nil {
		s.prefixMS[v.Sig] = make(map[int]float64)
	}
	s.prefixMS[v.Sig][b] = ms(d)
	return ms(d), nil
}

// replayStages fills in the per-layer metrics that come from calling a layer
// directly: nn.*, tensor.*, serving.frame_roundtrip_us, integrity.*,
// network.*, core.* and telemetry.observe_ns. It runs after the rig is
// stopped, so nothing competes with it.
func replayStages(r *rig, out *outcome) (*stages, error) {
	st := &stages{inputs: r.inputs, prefixMS: make(map[string]map[int]float64)}
	class := r.spec.class
	if r.spec.swing {
		class = 1 // the partitioned variant: it has both an edge and a cloud half
	}
	_, branch, err := core.ComposeForClass(r.tree, class)
	if err != nil {
		return nil, err
	}
	v := r.variants[gateway.BranchSig(branch)]
	if v == nil {
		return nil, fmt.Errorf("class %d composes to a variant the rig never built", class)
	}
	net, n := v.Net, len(v.Net.Model.Layers)
	x := r.inputs[0]

	prefix, err := st.edgePrefixMS(v, gwMaxBatch)
	if err != nil {
		return nil, err
	}
	out.set("nn.edge_prefix_ms", prefix)
	if v.Cut < n-1 {
		act, err := net.ForwardRange(x, 0, v.Cut+1)
		if err != nil {
			return nil, err
		}
		out.note("activation %v = %d bytes as float64", act.Shape, 8*act.Len())
		if err := out.timed("nn.cloud_suffix_ms", time.Millisecond, 5, once(func() error {
			_, err := net.ForwardRange(act, v.Cut+1, n)
			return err
		})); err != nil {
			return nil, err
		}
		// One offload's two frames through the binary codec over an
		// in-memory loopback, at this activation's shape.
		wb, err := serving.NewWireBench(serving.WireBenchBinary)
		if err != nil {
			return nil, err
		}
		req := &serving.Request{ID: 1, ModelID: v.ModelID, Cut: v.Cut, Shape: act.Shape, Activation: act.Data}
		resp := &serving.Response{ID: 1, Logits: make([]float64, net.Model.Classes)}
		if err := out.timed("serving.frame_roundtrip_us", time.Microsecond, 5, times(20, func(int) error {
			return wb.RoundTrip(req, resp)
		})); err != nil {
			return nil, err
		}
	}

	if err := out.timed("nn.forward_single_ms", time.Millisecond, 5, once(func() error {
		_, err := net.Forward(x)
		return err
	})); err != nil {
		return nil, err
	}
	if err := out.timed("nn.forward_batch8_ms", time.Millisecond, 3, once(func() error {
		_, err := net.ForwardBatch(r.inputs[:gwMaxBatch])
		return err
	})); err != nil {
		return nil, err
	}
	maccs, err := net.Model.BlockMACCs([]nn.Block{{Start: 0, End: n}})
	if err != nil {
		return nil, err
	}
	out.set("nn.maccs", float64(maccs[0]))
	out.set("nn.ns_per_macc", ratio(out.metrics["nn.forward_single_ms"]*1e6, float64(maccs[0])))

	const forwards = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < forwards; i++ {
		if _, err := net.Forward(x); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	out.set("nn.allocs_per_forward", float64(after.Mallocs-before.Mallocs)/forwards)
	out.set("nn.alloc_kb_per_forward", float64(after.TotalAlloc-before.TotalAlloc)/1024/forwards)

	if err := replayKernels(net.Model, r.seed, out); err != nil {
		return nil, err
	}

	key := []byte("cadmc/benchmark")
	var manifest *integrity.Manifest
	if err := out.timed("integrity.manifest_ms", time.Millisecond, 3, once(func() (err error) {
		manifest, err = integrity.NewManifest(net, v.ModelID, v.Sig, v.Class, key)
		return err
	})); err != nil {
		return nil, err
	}
	if err := out.timed("integrity.verify_ms", time.Millisecond, 3, once(func() error {
		return manifest.Verify(net, key)
	})); err != nil {
		return nil, err
	}
	if err := replayDecision(r.tree, r.seed, out); err != nil {
		return nil, err
	}
	// A fresh registry each time: the histogram keeps every sample, so the
	// cost of one Observe includes its share of the slice growing.
	var reg *telemetry.Registry
	return st, out.timed("telemetry.observe_ns", time.Nanosecond, 3, times(10000, func(i int) error {
		if i == 0 {
			reg = telemetry.NewRegistry()
		}
		reg.Observe("benchmark.replay_ms", float64(i))
		return nil
	}))
}

// replayKernels times the tensor kernels at the three largest shapes of each
// kind the model uses: Conv2D and Im2Col at its conv layers, MatMul at its
// fully-connected layers (eight columns, the micro-batch), MaxPool2D at its
// pooling layers.
func replayKernels(m *nn.Model, seed int64, out *outcome) error {
	dims, err := m.InferDims()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 3))
	type site struct {
		layer nn.Layer
		dims  nn.Dims
		work  int64
	}
	largest := func(kind nn.LayerType, work func(l nn.Layer, d nn.Dims) int64) []site {
		var sites []site
		for i, l := range m.Layers {
			if l.Type == kind {
				sites = append(sites, site{l, dims[i], work(l, dims[i])})
			}
		}
		sort.SliceStable(sites, func(a, b int) bool { return sites[a].work > sites[b].work })
		return sites[:min(len(sites), 3)]
	}
	// total sums, over sites, the median time of one call of the kernel
	// built for the site, in nanoseconds, and the work done.
	total := func(sites []site, kernel func(s site) func() error) (ns, work float64, err error) {
		for _, s := range sites {
			d, err := timeMedian(3, once(kernel(s)))
			if err != nil {
				return 0, 0, err
			}
			ns, work = ns+float64(d), work+float64(s.work)
		}
		return ns, work, nil
	}
	convShape := func(s site) (tensor.ConvShape, *tensor.Tensor) {
		l, d := s.layer, s.dims
		cs := tensor.ConvShape{InC: l.In, InH: d.In.H, InW: d.In.W, OutC: l.Out, Kernel: l.Kernel, Stride: l.Stride, Padding: l.Padding}
		return cs, tensor.Randn(rng, 1, l.In, d.In.H, d.In.W)
	}

	convs := largest(nn.Conv, func(l nn.Layer, d nn.Dims) int64 {
		return int64(d.Out.Elems()) * int64(l.In*l.Kernel*l.Kernel)
	})
	ns, work, err := total(convs, func(s site) func() error {
		cs, in := convShape(s)
		w := tensor.Randn(rng, 0.1, cs.OutC, cs.InC*cs.Kernel*cs.Kernel)
		bias := tensor.Randn(rng, 0.1, cs.OutC)
		return func() error {
			_, err := tensor.Conv2D(in, w, bias, cs)
			return err
		}
	})
	if err != nil {
		return err
	}
	out.set("tensor.conv2d_ns_per_macc", ratio(ns, work))

	ns, _, err = total(convs, func(s site) func() error {
		cs, in := convShape(s)
		return func() error {
			_, err := tensor.Im2Col(in, cs)
			return err
		}
	})
	if err != nil {
		return err
	}
	out.set("tensor.im2col_us", ns/1e3)

	fcs := largest(nn.FC, func(l nn.Layer, _ nn.Dims) int64 { return int64(l.In) * int64(l.Out) * gwMaxBatch })
	ns, work, err = total(fcs, func(s site) func() error {
		w := tensor.Randn(rng, 0.1, s.layer.Out, s.layer.In)
		xs := tensor.Randn(rng, 1, s.layer.In, gwMaxBatch)
		return func() error {
			_, err := tensor.MatMul(w, xs)
			return err
		}
	})
	if err != nil {
		return err
	}
	out.set("tensor.matmul_ns_per_macc", ratio(ns, work))

	pools := largest(nn.MaxPool, func(_ nn.Layer, d nn.Dims) int64 { return int64(d.In.Elems()) })
	ns, _, err = total(pools, func(s site) func() error {
		in := tensor.Randn(rng, 1, s.dims.In.C, s.dims.In.H, s.dims.In.W)
		return func() error {
			_, _, err := tensor.MaxPool2D(in, s.layer.Kernel, s.layer.Stride)
			return err
		}
	})
	if err != nil {
		return err
	}
	out.set("tensor.maxpool_us", ns/1e3)
	return nil
}

// replayDecision times what one swap decision is made of: classify the
// estimate, read the coarse monitor, walk the tree, compose the variant's
// model. It is the paper's "composition overhead is negligible" as numbers.
func replayDecision(tree *core.ModelTree, seed int64, out *outcome) error {
	const loops = 1000
	if err := out.timed("network.classify_ns", time.Nanosecond, 5, times(loops, func(i int) error {
		sink += float64(network.Classify(tree.ClassMbps, 0.5+float64(i%32)))
		return nil
	})); err != nil {
		return err
	}
	env, err := network.ByName("4G indoor static")
	if err != nil {
		return err
	}
	trace, err := network.Generate(env, seed, 60_000)
	if err != nil {
		return err
	}
	mon, err := network.NewCoarseMonitor(trace, 1000, 0.3, seed)
	if err != nil {
		return err
	}
	if err := out.timed("network.estimate_ns", time.Nanosecond, 5, times(loops, func(i int) error {
		sink += mon.EstimateMbps(float64(i) * 50)
		return nil
	})); err != nil {
		return err
	}
	if err := out.timed("core.compose_us", time.Microsecond, 5, times(tree.K(), func(k int) error {
		_, _, err := core.ComposeForClass(tree, k)
		return err
	})); err != nil {
		return err
	}
	rt, err := core.NewRuntime(tree)
	if err != nil {
		return err
	}
	return out.timed("core.rewalk_us", time.Microsecond, 5, times(loops, func(i int) error {
		_, err := rt.RewalkClass(i % tree.K())
		return err
	}))
}
