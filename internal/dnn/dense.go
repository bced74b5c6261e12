package dnn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tensor"
)

// Dense is a fully-connected layer y = Wx + b over a flattened input.
type Dense struct {
	Out, In int
	W       *tensor.Tensor // (Out, In)
	B       *tensor.Tensor // (Out)

	dW, dB        *tensor.Tensor
	inCache       *tensor.Tensor
	outBuf, dxBuf *tensor.Tensor
}

// NewDense returns a fully-connected layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, out, in int) *Dense {
	l := &Dense{
		Out: out, In: in,
		W:  tensor.New(out, in),
		B:  tensor.New(out),
		dW: tensor.New(out, in),
		dB: tensor.New(out),
	}
	l.W.RandNormal(rng, math.Sqrt(2.0/float64(in)))
	return l
}

func (l *Dense) Kind() string { return "dense" }

func (l *Dense) OutShape(in Shape) (Shape, error) {
	if in.Len() != l.In {
		return Shape{}, fmt.Errorf("dnn: dense expects %d inputs, got %v (%d)", l.In, in, in.Len())
	}
	return Shape{1, 1, l.Out}, nil
}

// Forward computes four output rows per pass over x; each row keeps its
// own left-to-right sum starting at its bias.
func (l *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.inCache = x
	in := l.In
	xd := x.Data()[:in]
	out := scratch(&l.outBuf, 1, 1, l.Out)
	od, wd, bd := out.Data(), l.W.Data(), l.B.Data()
	o := 0
	for ; o+4 <= l.Out; o += 4 {
		r0 := wd[o*in:][:in]
		r1 := wd[(o+1)*in:][:in]
		r2 := wd[(o+2)*in:][:in]
		r3 := wd[(o+3)*in:][:in]
		s0, s1, s2, s3 := bd[o], bd[o+1], bd[o+2], bd[o+3]
		for i, xv := range xd {
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		od[o], od[o+1], od[o+2], od[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		row := wd[o*in:][:in]
		s := bd[o]
		for i, xv := range xd {
			s += row[i] * xv
		}
		od[o] = s
	}
	return out
}

func (l *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	xd := l.inCache.Data()
	dyd := dy.Data()
	dx := scratchZero(&l.dxBuf, l.inCache.Dim(0), l.inCache.Dim(1), l.inCache.Dim(2))
	dxd := dx.Data()
	wd, dwd := l.W.Data(), l.dW.Data()
	for o := 0; o < l.Out; o++ {
		g := dyd[o]
		l.dB.Data()[o] += g
		if g == 0 {
			continue
		}
		row := wd[o*l.In : (o+1)*l.In]
		drow := dwd[o*l.In : (o+1)*l.In]
		for i := range row {
			drow[i] += g * xd[i]
			dxd[i] += g * row[i]
		}
	}
	return dx
}

func (l *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }
func (l *Dense) Grads() []*tensor.Tensor  { return []*tensor.Tensor{l.dW, l.dB} }
func (l *Dense) MACs(in Shape) int        { return l.Out * l.In }
func (l *Dense) ParamCount() int          { return l.Out*l.In + l.Out }

func (l *Dense) ensureGrads() {
	if l.dW == nil {
		l.dW = tensor.New(l.Out, l.In)
		l.dB = tensor.New(l.Out)
	}
}

// SparseDense is a pruned fully-connected layer stored in CSR form. It is
// what GENESIS emits after pruning a Dense layer, and what SONIC's sparse
// undo-logging kernel consumes on-device. Gradients flow only to retained
// weights, implementing masked fine-tuning.
type SparseDense struct {
	Out, In int
	W       *tensor.CSR
	B       *tensor.Tensor // (Out)

	dVals         []float64 // gradient per retained weight
	dB            *tensor.Tensor
	inCache       *tensor.Tensor
	valsT         *tensor.Tensor // view over W.Vals for the optimizer
	dValsT        *tensor.Tensor
	outBuf, dxBuf *tensor.Tensor
}

// NewSparseDense prunes a Dense layer at the given magnitude threshold and
// returns the sparse replacement.
func NewSparseDense(d *Dense, threshold float64) *SparseDense {
	csr := tensor.NewCSR(d.W, threshold)
	l := &SparseDense{Out: d.Out, In: d.In, W: csr, B: d.B.Clone()}
	l.initBuffers()
	return l
}

func (l *SparseDense) initBuffers() {
	l.dVals = make([]float64, l.W.NNZ())
	l.dB = tensor.New(max(l.Out, 1))
	if l.W.NNZ() > 0 {
		l.valsT = tensor.FromSlice(l.W.Vals, l.W.NNZ())
		l.dValsT = tensor.FromSlice(l.dVals, l.W.NNZ())
	} else {
		l.valsT = tensor.New(1)
		l.dValsT = tensor.New(1)
	}
}

func (l *SparseDense) Kind() string { return "sparse-dense" }

func (l *SparseDense) OutShape(in Shape) (Shape, error) {
	if in.Len() != l.In {
		return Shape{}, fmt.Errorf("dnn: sparse-dense expects %d inputs, got %v", l.In, in)
	}
	return Shape{1, 1, l.Out}, nil
}

func (l *SparseDense) Forward(x *tensor.Tensor) *tensor.Tensor {
	l.inCache = x
	out := scratch(&l.outBuf, 1, 1, l.Out)
	od := out.Data()
	xd := x.Data()
	for o := 0; o < l.Out; o++ {
		s := l.B.Data()[o]
		for p := l.W.RowPtr[o]; p < l.W.RowPtr[o+1]; p++ {
			s += l.W.Vals[p] * xd[l.W.Cols[p]]
		}
		od[o] = s
	}
	return out
}

func (l *SparseDense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	xd := l.inCache.Data()
	dyd := dy.Data()
	dx := scratchZero(&l.dxBuf, l.inCache.Dim(0), l.inCache.Dim(1), l.inCache.Dim(2))
	dxd := dx.Data()
	for o := 0; o < l.Out; o++ {
		g := dyd[o]
		l.dB.Data()[o] += g
		if g == 0 {
			continue
		}
		for p := l.W.RowPtr[o]; p < l.W.RowPtr[o+1]; p++ {
			c := l.W.Cols[p]
			l.dVals[p] += g * xd[c]
			dxd[c] += g * l.W.Vals[p]
		}
	}
	return dx
}

func (l *SparseDense) Params() []*tensor.Tensor { return []*tensor.Tensor{l.valsT, l.B} }
func (l *SparseDense) Grads() []*tensor.Tensor  { return []*tensor.Tensor{l.dValsT, l.dB} }
func (l *SparseDense) MACs(in Shape) int        { return l.W.NNZ() }
func (l *SparseDense) ParamCount() int          { return l.W.NNZ() + l.Out }

func (l *SparseDense) ensureGrads() {
	if l.dVals == nil || l.valsT == nil {
		l.initBuffers()
	}
}
