package tensor

import "cadmc/internal/parallel"

// The one GEMM. Every matrix product in the tree — MatMul, Conv2D, the
// convolution backward pass and each conv / fully-connected / Fire layer of
// the inference executor — is C = A·B with A an m×k row-major weight matrix
// and B a k×n matrix that exists only as packed panels: panelW consecutive
// columns stored p-major, so one micro-kernel step reads panelW adjacent
// floats. B's columns are the output positions of a batch of activations
// (sample-major, then row-major over the output plane), gathered straight
// from the activations by the pack; a plain matrix is the batch-of-one 1×1
// case. Folding the batch into n is what lets eight items share one pass
// over a weight row.
//
// The micro-kernel holds a 2×panelW tile of C in registers across the whole
// k loop, so each output element is one serial sum in ascending p — the
// definition of accumulation order for the tree. Row tiles fan out over
// parallel.For; a tile is computed by exactly one executor, so results are
// bit-identical at any GOMAXPROCS.
//
// One product family lives outside it: the RL controllers' BiLSTM encoder
// (internal/rl) runs its gate projections, Uᵀ·dz and weight gradients through
// gemvT, a strided matrix–vector kernel with one lane per output element
// (AVX where the CPU has it, pure Go elsewhere). Its shapes are tiny (96×18
// and 96×24 against one timestep), each controller already runs inside the
// report's per-row fan-out, and here every call would pay panel packing plus
// a nested parallel.For. Its order contract is the same: each output element
// one serial sum in a fixed order.
const (
	panelW = 4
	// blockFloats bounds the packed panels of one column block. Columns are
	// processed a block at a time — pack, then every row tile against it —
	// so the panels a row tile streams stay cache-resident whatever the
	// batch and plane size (256 KiB: a sixteenth of this host's L2).
	blockFloats = 32 << 10
)

// Epilogue is applied to each output element as its tile leaves the
// registers. Convolutions add the bias to the finished sum; fully-connected
// layers start the sum from it (BiasFirst) — the two orders the layers have
// always used, kept because they round differently.
type Epilogue struct {
	Bias      []float64 // one per output row; nil for none
	BiasFirst bool
	ReLU      bool
}

// panelLen returns how many floats of panel scratch a Workspace grows to for
// this convolution over a batch: one column block, or all the columns when
// they make less than a block.
func (c ConvShape) panelLen(batch int) int {
	k := c.InC * c.Kernel * c.Kernel
	outH, outW := c.OutHW()
	return min(panelsPerBlock(k), (batch*outH*outW+panelW-1)/panelW) * k * panelW
}

// panelsPerBlock is how many k-row panels fit the block budget (at least one).
func panelsPerBlock(k int) int {
	return max(1, blockFloats/max(1, k*panelW))
}

// Workspace runs batched convolutions through the GEMM over panel scratch it
// owns. The scratch grows to the largest panelLen it has run and is never
// zeroed: every float the kernel reads was written by the pack. The
// Workspace also carries the parameters of the fan-out in flight and the two
// closures handed to parallel.For, bound on first use, so a warm Workspace
// runs a layer without allocating. The zero Workspace is ready to use; it
// serves one goroutine at a time and must not be copied once used (its
// closures point at its own job).
type Workspace struct {
	job        gemmJob
	pack, rows func(lo, hi int)
}

// gemmJob is one column block's worth of work: which columns, where their
// operands come from and where the finished tiles go.
type gemmJob struct {
	panels []float64

	a    []float64 // m×k weights
	m, k int
	ep   Epilogue

	src       []float64 // sample b's input plane stack starts at src[b*srcStride]
	srcStride int
	cs        ConvShape
	outW, hw  int // output plane width and size

	dst       []float64 // sample b's row i starts at dst[b*dstStride+i*hw]
	dstStride int

	cols   int // batch·hw
	j0, np int // first column and panel count of the block
}

// Conv2D convolves batch activations — sample b at src[b*srcStride:], a
// cs.InC×cs.InH×cs.InW stack — with weights (cs.OutC × cs.InC·K·K) and
// writes sample b's cs.OutC output planes at dst[b*dstStride:]. dst must not
// overlap src. Shapes are the caller's contract; nothing is validated here.
func (w *Workspace) Conv2D(dst []float64, dstStride int, src []float64, srcStride, batch int, weights []float64, cs ConvShape, ep Epilogue) {
	if w.pack == nil {
		w.pack, w.rows = w.job.packPanels, w.job.rowTiles
	}
	w.job.panels = parallel.Grow(w.job.panels, cs.panelLen(batch))
	g := &w.job
	outH, outW := cs.OutHW()
	g.a, g.m, g.k, g.ep = weights, cs.OutC, cs.InC*cs.Kernel*cs.Kernel, ep
	g.src, g.srcStride, g.cs = src, srcStride, cs
	g.outW, g.hw = outW, outH*outW
	g.dst, g.dstStride = dst, dstStride
	g.cols = batch * g.hw
	per := panelsPerBlock(g.k)
	tiles := (g.m + 1) / 2
	for g.j0 = 0; g.j0 < g.cols; g.j0 += per * panelW {
		g.np = min(per, (g.cols-g.j0+panelW-1)/panelW)
		parallel.For(g.np, parallel.Grain(g.np, 8*panelW*g.k), w.pack)
		parallel.For(tiles, parallel.Grain(tiles, 4*panelW*g.k*g.np), w.rows)
	}
}

// packPanels gathers panels [lo, hi) of the block: panel q holds columns
// j0+q·panelW … of the unfolded input, row p = (channel, ky, kx) — im2col
// written directly in the layout the kernel reads. Padding positions and the
// columns past the last one are explicit zeros, so every float the kernel
// reads was written here.
func (g *gemmJob) packPanels(lo, hi int) {
	cs := g.cs
	plane := cs.InH * cs.InW
	for q := lo; q < hi; q++ {
		out := g.panels[q*panelW*g.k : (q+1)*panelW*g.k]
		// base[c] < 0 marks a column past the end.
		var base, iy0, ix0 [panelW]int
		for c := range base {
			j := g.j0 + q*panelW + c
			if j >= g.cols {
				base[c] = -1
				continue
			}
			pos := j % g.hw
			base[c] = j / g.hw * g.srcStride
			iy0[c] = pos/g.outW*cs.Stride - cs.Padding
			ix0[c] = pos%g.outW*cs.Stride - cs.Padding
		}
		if cs.Kernel == 1 && cs.Padding == 0 {
			// A 1×1 convolution (and a matrix, and a fully-connected
			// layer) reads one input element per row: no window to unfold.
			for c := range base {
				if base[c] >= 0 {
					base[c] += iy0[c]*cs.InW + ix0[c]
				}
			}
			if b := base[0]; b >= 0 && base[1] == b+1 && base[2] == b+2 && base[3] == b+3 {
				for p := 0; p < g.k; p++ { // four neighbours of one plane: copy them
					copy(out[p*panelW:(p+1)*panelW], g.src[b+p*plane:])
				}
				continue
			}
			for p := 0; p < g.k; p++ {
				for c, b := range base {
					v := 0.0
					if b >= 0 {
						v = g.src[b+p*plane]
					}
					out[p*panelW+c] = v
				}
			}
			continue
		}
		i := 0
		for ch := 0; ch < cs.InC; ch++ {
			for ky := 0; ky < cs.Kernel; ky++ {
				for kx := 0; kx < cs.Kernel; kx++ {
					for c, b := range base {
						v := 0.0
						iy, ix := iy0[c]+ky, ix0[c]+kx
						if b >= 0 && uint(iy) < uint(cs.InH) && uint(ix) < uint(cs.InW) {
							v = g.src[b+ch*plane+iy*cs.InW+ix]
						}
						out[i] = v
						i++
					}
				}
			}
		}
	}
}

// rowTiles computes row tiles [lo, hi) — rows 2t and 2t+1 — against every
// panel of the block and stores them through the epilogue.
func (g *gemmJob) rowTiles(lo, hi int) {
	k, hw := g.k, g.hw
	for t := lo; t < hi; t++ {
		i := 2 * t
		a0 := g.a[i*k : (i+1)*k]
		a1 := a0 // an odd m's last tile computes its one row twice
		rows := 1
		if i+1 < g.m {
			a1, rows = g.a[(i+1)*k:(i+2)*k], 2
		}
		var bias, init [2]float64
		if g.ep.Bias != nil {
			bias[0], bias[1] = g.ep.Bias[i], g.ep.Bias[i+rows-1]
			if g.ep.BiasFirst {
				init = bias
			}
		}
		addBias, relu := g.ep.Bias != nil && !g.ep.BiasFirst, g.ep.ReLU
		fin := func(v, bias float64) float64 {
			if addBias {
				v += bias
			}
			if relu && v < 0 {
				v = 0
			}
			return v
		}
		// Column j is position pos of sample j/hw; at is where row 0 of
		// that column lives in dst.
		j, pos := g.j0, g.j0%hw
		at := g.j0/hw*g.dstStride + pos
		for q := 0; q < g.np; q++ {
			c00, c01, c02, c03, c10, c11, c12, c13 :=
				kernel2x4(a0, a1, g.panels[q*panelW*k:(q+1)*panelW*k], init[0], init[1])
			if rows == 2 && pos+panelW <= hw && j+panelW <= g.cols {
				// The common tile: both rows, four columns of one plane.
				o0, o1 := g.dst[at+i*hw:][:panelW], g.dst[at+(i+1)*hw:][:panelW]
				o0[0], o0[1], o0[2], o0[3] = fin(c00, bias[0]), fin(c01, bias[0]), fin(c02, bias[0]), fin(c03, bias[0])
				o1[0], o1[1], o1[2], o1[3] = fin(c10, bias[1]), fin(c11, bias[1]), fin(c12, bias[1]), fin(c13, bias[1])
				j, pos, at = j+panelW, pos+panelW, at+panelW
				if pos == hw {
					pos, at = 0, at+g.dstStride-hw
				}
				continue
			}
			// A ragged tile — one row, or columns that end or change sample
			// inside the panel — is stored a run of columns at a time.
			c := [2][panelW]float64{{c00, c01, c02, c03}, {c10, c11, c12, c13}}
			for col := 0; col < panelW && j < g.cols; {
				n := min(panelW-col, g.cols-j, hw-pos)
				for r := 0; r < rows; r++ {
					out := g.dst[at+(i+r)*hw:][:n]
					for x := range out {
						out[x] = fin(c[r][col+x], bias[r])
					}
				}
				col, j, pos, at = col+n, j+n, pos+n, at+n
				if pos == hw {
					pos, at = 0, at+g.dstStride-hw
				}
			}
		}
	}
}

// kernel2x4 is the micro-kernel: two rows of A against one panel, eight
// sums carried in registers from init through every p in ascending order.
func kernel2x4(a0, a1, panel []float64, init0, init1 float64) (c00, c01, c02, c03, c10, c11, c12, c13 float64) {
	c00, c01, c02, c03 = init0, init0, init0, init0
	c10, c11, c12, c13 = init1, init1, init1, init1
	a1 = a1[:len(a0)]
	panel = panel[:panelW*len(a0)]
	for p, x0 := range a0 {
		x1 := a1[p]
		b := panel[p*panelW : p*panelW+panelW : p*panelW+panelW]
		c00 += x0 * b[0]
		c01 += x0 * b[1]
		c02 += x0 * b[2]
		c03 += x0 * b[3]
		c10 += x1 * b[0]
		c11 += x1 * b[1]
		c12 += x1 * b[2]
		c13 += x1 * b[3]
	}
	return
}
