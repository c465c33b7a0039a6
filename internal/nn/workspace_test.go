package nn

import (
	"fmt"
	"testing"

	"cadmc/internal/parallel"
	"cadmc/internal/tensor"
)

// execute runs p over xs in slab, which must hold p.slabLen(len(xs)) floats,
// on a workspace built around it: how the dirty-slab test hands the executor
// a slab of its own making.
func (n *Net) execute(p *plan, xs []*tensor.Tensor, slab []float64) []float64 {
	ws := Workspace{slab: slab}
	return ws.execute(n, p, xs)
}

// viewCopies runs [from, to) over xs on ws and returns copies of the views.
func viewCopies(t *testing.T, net *Net, ws *Workspace, xs []*tensor.Tensor, from, to int) []*tensor.Tensor {
	t.Helper()
	var outs []*tensor.Tensor
	err := net.ForwardRangeBatchView(ws, xs, from, to, func(views []*tensor.Tensor) error {
		for _, v := range views {
			outs = append(outs, v.Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// TestWorkspaceReuseAcrossPlans: one workspace runs a big plan (VGG11 at a
// batch of 8), a smaller one (an AlexNet suffix), a residual range with Adds
// and the big plan again. Each output is bit-identical to a fresh
// workspace's, although every reuse starts on whatever the last plan left in
// the slab and the panels, and the second big run grows nothing.
func TestWorkspaceReuseAcrossPlans(t *testing.T) {
	zoo := func(name string, seed int64) *Net {
		m, err := Zoo(name, CIFARInput, CIFARClasses)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Normalize(); err != nil {
			t.Fatal(err)
		}
		return testNet(t, m, seed, false)
	}
	vgg, alex, res := zoo("VGG11", 90), zoo("AlexNet", 91), testNet(t, kindModels()[4], 92, false)
	alexCut := len(alex.Model.Layers) / 2
	alexIn, err := alex.ForwardRangeBatch(testInputs(alex.Model, 93, 3), 0, alexCut)
	if err != nil {
		t.Fatal(err)
	}
	type job struct {
		name     string
		net      *Net
		xs       []*tensor.Tensor
		from, to int
	}
	big := job{"VGG11 batch 8", vgg, testInputs(vgg.Model, 94, 8), 0, len(vgg.Model.Layers)}
	jobs := []job{
		big,
		{"AlexNet suffix", alex, alexIn, alexCut, len(alex.Model.Layers)},
		{"residual range", res, testInputs(res.Model, 95, 5), 0, len(res.Model.Layers)},
		big,
	}
	var ws Workspace
	for k, j := range jobs {
		want := viewCopies(t, j.net, new(Workspace), j.xs, j.from, j.to)
		slab, panels := cap(ws.slab), parallel.Stats().ArenaMisses
		got := viewCopies(t, j.net, &ws, j.xs, j.from, j.to)
		for b := range want {
			sameBits(t, fmt.Sprintf("run %d (%s) item %d", k, j.name, b), got[b], want[b])
		}
		if k == len(jobs)-1 {
			if cap(ws.slab) != slab {
				t.Errorf("second %s run grew the slab from %d to %d floats", j.name, slab, cap(ws.slab))
			}
			if grown := parallel.Stats().ArenaMisses - panels; grown != 0 {
				t.Errorf("second %s run grew %d workspace buffers", j.name, grown)
			}
		}
	}
}
