package rl

import (
	"math"
	"math/rand"
	"testing"
)

// The scalar reference encoder: the per-step LSTM forward and BPTT the
// kernels in lstm.go replaced, kept verbatim in their arithmetic as the
// oracle the kernels must match bit for bit.

type refStep struct {
	x          []float64
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64 // post-activation gates
	c, h       []float64
}

func refForward(l *LSTM, seq [][]float64) ([][]float64, []refStep) {
	h := make([]float64, l.H)
	c := make([]float64, l.H)
	steps := make([]refStep, 0, len(seq))
	outs := make([][]float64, 0, len(seq))
	for _, x := range seq {
		st := refStep{
			x:     x,
			hPrev: h,
			cPrev: c,
			i:     make([]float64, l.H),
			f:     make([]float64, l.H),
			g:     make([]float64, l.H),
			o:     make([]float64, l.H),
			c:     make([]float64, l.H),
			h:     make([]float64, l.H),
		}
		for j := 0; j < l.H; j++ {
			zi := refGate(l, 0, j, x, h)
			zf := refGate(l, 1, j, x, h)
			zg := refGate(l, 2, j, x, h)
			zo := refGate(l, 3, j, x, h)
			st.i[j] = sigmoid(zi)
			st.f[j] = sigmoid(zf)
			st.g[j] = math.Tanh(zg)
			st.o[j] = sigmoid(zo)
			st.c[j] = st.f[j]*c[j] + st.i[j]*st.g[j]
			st.h[j] = st.o[j] * math.Tanh(st.c[j])
		}
		h = st.h
		c = st.c
		steps = append(steps, st)
		outs = append(outs, st.h)
	}
	return outs, steps
}

func refGate(l *LSTM, b, j int, x, h []float64) float64 {
	row := (b*l.H + j)
	z := l.B.Val[row]
	wRow := l.W.Val[row*l.In : (row+1)*l.In]
	for k, xv := range x {
		z += wRow[k] * xv
	}
	uRow := l.U.Val[row*l.H : (row+1)*l.H]
	for k, hv := range h {
		z += uRow[k] * hv
	}
	return z
}

func refBackward(l *LSTM, steps []refStep, dH [][]float64) {
	n := len(steps)
	dhNext := make([]float64, l.H)
	dcNext := make([]float64, l.H)
	dz := make([]float64, 4*l.H)
	for t := n - 1; t >= 0; t-- {
		st := steps[t]
		dh := make([]float64, l.H)
		copy(dh, dhNext)
		for j := range dh {
			dh[j] += dH[t][j]
		}
		dhPrev := make([]float64, l.H)
		dcPrev := make([]float64, l.H)
		for j := 0; j < l.H; j++ {
			tc := math.Tanh(st.c[j])
			do := dh[j] * tc
			dc := dcNext[j] + dh[j]*st.o[j]*(1-tc*tc)
			di := dc * st.g[j]
			df := dc * st.cPrev[j]
			dg := dc * st.i[j]
			dcPrev[j] = dc * st.f[j]
			dz[0*l.H+j] = di * st.i[j] * (1 - st.i[j])
			dz[1*l.H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*l.H+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*l.H+j] = do * st.o[j] * (1 - st.o[j])
		}
		for row := 0; row < 4*l.H; row++ {
			gz := dz[row]
			if gz == 0 {
				continue
			}
			l.B.Grad[row] += gz
			gwRow := l.W.Grad[row*l.In : (row+1)*l.In]
			for k := 0; k < l.In; k++ {
				gwRow[k] += gz * st.x[k]
			}
			uRow := l.U.Val[row*l.H : (row+1)*l.H]
			guRow := l.U.Grad[row*l.H : (row+1)*l.H]
			for k := 0; k < l.H; k++ {
				guRow[k] += gz * st.hPrev[k]
				dhPrev[k] += gz * uRow[k]
			}
		}
		dhNext = dhPrev
		dcNext = dcPrev
	}
}

// refBiForward is the reference encoder: the forward direction over seq,
// the backward one over its reverse, concatenated per timestep.
func refBiForward(b *BiLSTM, seq [][]float64) ([][]float64, []refStep, []refStep) {
	fOut, fSteps := refForward(b.Fwd, seq)
	rev := make([][]float64, len(seq))
	for i := range seq {
		rev[i] = seq[len(seq)-1-i]
	}
	bOutRev, bSteps := refForward(b.Bwd, rev)
	out := make([][]float64, len(seq))
	for t := range seq {
		out[t] = append(append([]float64(nil), fOut[t]...), bOutRev[len(seq)-1-t]...)
	}
	return out, fSteps, bSteps
}

func refBiBackward(b *BiLSTM, fSteps, bSteps []refStep, dH [][]float64) {
	n := len(dH)
	dF := make([][]float64, n)
	dBrev := make([][]float64, n)
	for t := range dH {
		dF[t] = dH[t][:b.Fwd.H]
		dBrev[n-1-t] = dH[t][b.Fwd.H:]
	}
	refBackward(b.Fwd, fSteps, dF)
	refBackward(b.Bwd, bSteps, dBrev)
}

// firstBitDiff returns the first index where a and b differ bit for bit, or
// -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// The encoder's kernels — the hoisted input projection, the interleaved
// gate rows, the deferred weight gradients, the shared output slab and the
// slab a Step rewinds — reproduce the scalar reference bit for bit: every
// hidden state, and every parameter gradient after two backward passes
// accumulate, then again after an optimiser step on the rewound, dirty slab.
func TestEncoderMatchesScalarReference(t *testing.T) {
	type dHKind int
	const (
		dense      dHKind = iota
		zeroRows          // every third timestep's row is +0 or −0
		partlyZero        // a third of the entries are ±0
		allZero
	)
	cases := []struct {
		name       string
		in, hidden int
		n          int
		dH         dHKind
		infAt      int // timestep whose input holds +Inf; -1 for none
	}{
		{"search shapes", 18, 24, 12, dense, -1},
		{"odd shapes", 3, 5, 7, dense, -1},
		{"one step", 2, 3, 1, dense, -1},
		{"zero rows", 5, 6, 9, zeroRows, -1},
		{"partly zero", 7, 9, 6, partlyZero, -1},
		{"all zero", 4, 4, 5, allZero, -1},
		{"inf input", 6, 7, 5, dense, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bi, err := NewBiLSTM(tc.in, tc.hidden, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewBiLSTM(tc.in, tc.hidden, rand.New(rand.NewSource(41)))
			if err != nil {
				t.Fatal(err)
			}
			biOpt, err := NewAdam(0.05, bi.Params())
			if err != nil {
				t.Fatal(err)
			}
			refOpt, err := NewAdam(0.05, ref.Params())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			d := bi.OutDim()
			input := func() [][]float64 {
				seq := make([][]float64, tc.n)
				for i := range seq {
					seq[i] = make([]float64, tc.in)
					for k := range seq[i] {
						seq[i][k] = rng.NormFloat64()
					}
				}
				if tc.infAt >= 0 {
					seq[tc.infAt][tc.in/2] = math.Inf(1)
				}
				return seq
			}
			grad := func() ([]float64, [][]float64) {
				flat := make([]float64, tc.n*d)
				rows := make([][]float64, tc.n)
				for i := range rows {
					rows[i] = flat[i*d : (i+1)*d]
					for k := range rows[i] {
						v := rng.NormFloat64()
						switch {
						case tc.dH == allZero,
							tc.dH == zeroRows && i%3 == 0,
							tc.dH == partlyZero && rng.Intn(3) == 0:
							v = math.Copysign(0, v)
						}
						rows[i][k] = v
					}
				}
				return flat, rows
			}
			mem := &slab{}
			round := func(label string, seq [][]float64) {
				enc, err := bi.Forward(seq, mem)
				if err != nil {
					t.Fatal(err)
				}
				want, fSteps, bSteps := refBiForward(ref, seq)
				for tt, h := range want {
					if i := firstBitDiff(enc.H(tt), h); i >= 0 {
						t.Fatalf("%s: h[%d][%d] = %v, reference %v", label, tt, i, enc.H(tt)[i], h[i])
					}
				}
				flat, rows := grad()
				if err := bi.Backward(&enc, flat, mem); err != nil {
					t.Fatal(err)
				}
				refBiBackward(ref, fSteps, bSteps, rows)
			}
			checkGrads := func(label string) {
				for p, got := range bi.Params() {
					want := ref.Params()[p]
					if i := firstBitDiff(got.Grad, want.Grad); i >= 0 {
						t.Fatalf("%s: param %d grad[%d] = %v, reference %v", label, p, i, got.Grad[i], want.Grad[i])
					}
				}
			}
			a, b := input(), input()
			round("first pass", a)
			round("second pass", b)
			checkGrads("two passes")
			biOpt.Step()
			refOpt.Step()
			mem.rewind()
			round("after Step", a)
			checkGrads("after Step")
		})
	}
}
