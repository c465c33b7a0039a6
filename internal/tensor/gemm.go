package tensor

import (
	"cadmc/internal/lane"
	"cadmc/internal/parallel"
)

// The one GEMM. Every matrix product in the tree — MatMul, Conv2D, the
// convolution backward pass and each conv / fully-connected / Fire layer of
// the inference executor — is C = A·B with A an m×k row-major weight matrix
// and B a k×n matrix that exists only as packed panels: panelW consecutive
// columns stored p-major, so one kernel step reads adjacent floats. B's
// columns are the output positions of a batch of activations (sample-major,
// then row-major over the output plane), gathered straight from the
// activations by the pack; a plain matrix is the batch-of-one 1×1 case.
// Folding the batch into n is what lets eight items share one pass over a
// weight row.
//
// The micro-kernel is one weight row against one panel, and there are two
// forms of it. On a CPU with AVX it is lane.GemvT(acc, panel, stride, row):
// one output column per vector lane, the panel's sixteen in four YMM
// accumulators, summed straight into dst where the panel's columns lie in one
// plane of one sample. Elsewhere it is kernel2x4, a 2×4 register tile over
// the panel's 4-column strips, which scalar Go runs faster than GemvT's Go
// definition. Both make each output element one serial sum in ascending p —
// the definition of accumulation order for the tree — so the two paths agree
// bit for bit. Row tiles fan out over parallel.For; a tile is computed by
// exactly one executor, so results are bit-identical at any GOMAXPROCS.
//
// The RL controllers' BiLSTM encoder (internal/rl) calls the same lane
// kernel directly over its transposed weights, without this file: its shapes
// are tiny (96×18 and 96×24 against one timestep), each controller already
// runs inside the report's per-row fan-out, and here every call would pay
// panel packing plus a nested parallel.For.
const (
	panelW = 16
	// blockFloats bounds the packed panels of one column block. Columns are
	// processed a block at a time — pack, then every row tile against it —
	// so the panels a row tile streams stay cache-resident whatever the
	// batch and plane size (256 KiB: a sixteenth of this host's L2).
	blockFloats = 32 << 10
)

// Epilogue is applied to each output element once its sum is finished.
// Convolutions add the bias to the finished sum; fully-connected layers start
// the sum from it (BiasFirst) — the two orders the layers have always used,
// kept because they round differently.
type Epilogue struct {
	Bias      []float64 // one per output row; nil for none
	BiasFirst bool
	ReLU      bool
}

// panelLen returns how many floats of panel scratch a Workspace grows to for
// this convolution over a batch: one column block, or all the columns when
// they make less than a block (the last panel stored at its own width).
func (c ConvShape) panelLen(batch int) int {
	k := c.InC * c.Kernel * c.Kernel
	outH, outW := c.OutHW()
	return min(panelsPerBlock(k)*panelW, (batch*outH*outW+3)&^3) * k
}

// panelsPerBlock is how many k-row panels fit the block budget (at least one).
func panelsPerBlock(k int) int {
	return max(1, blockFloats/max(1, k*panelW))
}

// Workspace runs batched convolutions through the GEMM over panel scratch it
// owns. The scratch grows to the largest panelLen it has run and is never
// zeroed: every float the kernel reads was written by the pack. The
// Workspace also carries the parameters of the fan-out in flight, the two
// closures it hands to the pool, bound on first use, and the parallel.Job
// that fans them out, so a warm Workspace runs a layer without allocating at
// any GOMAXPROCS. The zero Workspace is ready to use; it serves one goroutine
// at a time and must not be copied once used (its closures point at its own
// job).
type Workspace struct {
	job        gemmJob
	pack, rows func(lo, hi int)
	fan        parallel.Job
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
		w.fan.For(g.np, parallel.Grain(g.np, 8*panelW*g.k), w.pack)
		w.fan.For(tiles, parallel.Grain(tiles, 4*panelW*g.k*g.np), w.rows)
	}
}

// panelCols returns how many columns panel q of the block holds and the
// width it is stored at: panelW, or for a last panel narrower than that its
// column count rounded up to the portable kernel's four, so no panel pads
// more than three columns.
func (g *gemmJob) panelCols(q int) (n, w int) {
	n = min(panelW, g.cols-g.j0-q*panelW)
	return n, (n + 3) &^ 3
}

// packPanels gathers panels [lo, hi) of the block: panel q holds columns
// j0+q·panelW … of the unfolded input, row p = (channel, ky, kx) — im2col
// written directly in the layout the kernel reads. Padding positions and the
// columns a narrow last panel pads with are explicit zeros, so every float
// the kernel reads was written here.
func (g *gemmJob) packPanels(lo, hi int) {
	cs := g.cs
	plane := cs.InH * cs.InW
	for q := lo; q < hi; q++ {
		n, w := g.panelCols(q)
		out := g.panels[q*panelW*g.k:][:w*g.k]
		// base[c] < 0 marks a padding column past the last one.
		var baseA, iy0, ix0 [panelW]int
		base := baseA[:w]
		for c := range base {
			if c >= n {
				base[c] = -1
				continue
			}
			j := g.j0 + q*panelW + c
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
			// The offsets rise by at least one per column, so a last one
			// n−1 past the first means n neighbours: copy them.
			if b := base[0]; n == w && base[n-1] == b+n-1 {
				for p := 0; p < g.k; p++ {
					copy(out[p*w:(p+1)*w], g.src[b+p*plane:])
				}
				continue
			}
			for p := 0; p < g.k; p++ {
				for c, b := range base {
					v := 0.0
					if b >= 0 {
						v = g.src[b+p*plane]
					}
					out[p*w+c] = v
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
// panel of the block and stores them through the epilogue. A panel whose
// columns lie in one plane of one sample is summed straight into dst, the
// epilogue applied in place; a ragged one, whose columns change sample
// inside it, is summed into c, a stack accumulator each chunk owns, and
// stored a run of columns at a time. An odd m's last tile has one row: the
// lane kernel computes it once, the 2×4 kernel twice, its copy landing in c.
func (g *gemmJob) rowTiles(lo, hi int) {
	k, hw := g.k, g.hw
	avx := lane.AVX()
	addBias, relu := g.ep.Bias != nil && !g.ep.BiasFirst, g.ep.ReLU
	var c [2][panelW]float64
	for t := lo; t < hi; t++ {
		i := 2 * t
		rows := min(2, g.m-i)
		a0, a1 := g.a[i*k:(i+1)*k], g.a[(i+rows-1)*k:][:k]
		var bias, init [2]float64
		if g.ep.Bias != nil {
			bias[0], bias[1] = g.ep.Bias[i], g.ep.Bias[i+rows-1]
			if g.ep.BiasFirst {
				init = bias
			}
		}
		// The panel's first column is position pos of its sample; at is
		// where row 0 of that column lives in dst.
		pos := g.j0 % hw
		at := g.j0/hw*g.dstStride + pos
		for q := 0; q < g.np; q++ {
			n, w := g.panelCols(q)
			panel := g.panels[q*panelW*k:][:w*k]
			inPlane := pos+n <= hw
			o0, o1 := c[0][:n], c[1][:n]
			if inPlane {
				o0 = g.dst[at+i*hw:][:n]
				if rows == 2 {
					o1 = g.dst[at+(i+1)*hw:][:n]
				}
			}
			if avx {
				fill(o0, init[0])
				lane.GemvT(o0, panel, w, a0, false)
				if rows == 2 {
					fill(o1, init[1])
					lane.GemvT(o1, panel, w, a1, false)
				}
			} else {
				for s := 0; s < n; s += 4 { // the panel's 4-column strips
					c00, c01, c02, c03, c10, c11, c12, c13 := kernel2x4(a0, a1, panel[s:], w, init[0], init[1])
					if n-s < 4 {
						copy(o0[s:], []float64{c00, c01, c02, c03})
						copy(o1[s:], []float64{c10, c11, c12, c13})
						break
					}
					r0, r1 := (*[4]float64)(o0[s:]), (*[4]float64)(o1[s:])
					r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
					r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
				}
			}
			if addBias || relu {
				finish(o0, bias[0], addBias, relu)
				finish(o1, bias[1], addBias, relu)
			}
			if inPlane {
				pos, at = pos+n, at+n
				if pos == hw {
					pos, at = 0, at+g.dstStride-hw
				}
				continue
			}
			for col := 0; col < n; {
				run := min(n-col, hw-pos)
				copy(g.dst[at+i*hw:][:run], o0[col:])
				if rows == 2 {
					copy(g.dst[at+(i+1)*hw:][:run], o1[col:])
				}
				col, pos, at = col+run, pos+run, at+run
				if pos == hw {
					pos, at = 0, at+g.dstStride-hw
				}
			}
		}
	}
}

// fill seeds a run of sums with init: +0, or the bias for BiasFirst.
func fill(o []float64, init float64) {
	for x := range o {
		o[x] = init
	}
}

// finish is the epilogue on a run of finished sums: the bias added (unless
// the sums started from it), then ReLU.
func finish(o []float64, bias float64, addBias, relu bool) {
	if addBias {
		for x := range o {
			o[x] += bias
		}
	}
	if relu {
		for x, v := range o {
			if v < 0 {
				o[x] = 0
			}
		}
	}
}

// kernel2x4 is the portable kernel: two rows of A against four columns of a
// panel stored stride floats per p, eight sums carried in registers from
// init through every p in ascending order.
func kernel2x4(a0, a1, panel []float64, stride int, init0, init1 float64) (c00, c01, c02, c03, c10, c11, c12, c13 float64) {
	c00, c01, c02, c03 = init0, init0, init0, init0
	c10, c11, c12, c13 = init1, init1, init1, init1
	a1 = a1[:len(a0)]
	off := 0
	for p, x0 := range a0 {
		x1 := a1[p]
		b := panel[off : off+4 : off+4]
		off += stride
		c00 += float64(x0 * b[0])
		c01 += float64(x0 * b[1])
		c02 += float64(x0 * b[2])
		c03 += float64(x0 * b[3])
		c10 += float64(x1 * b[0])
		c11 += float64(x1 * b[1])
		c12 += float64(x1 * b[2])
		c13 += float64(x1 * b[3])
	}
	return
}
