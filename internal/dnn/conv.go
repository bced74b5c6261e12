package dnn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tensor"
)

// Conv is a 2-D convolution with valid padding and stride 1, over an input
// volume (C,H,W) with F filters of size (C,KH,KW). One-dimensional
// convolutions — the shape GENESIS's separation emits — are just Convs with
// KH or KW equal to 1.
//
// A Conv may carry a pruning Mask (same shape as W); masked weights stay
// zero through training and are excluded from ParamCount and MACs. This is
// how GENESIS's pruned convolutional layers train and deploy.
type Conv struct {
	F, C, KH, KW int
	W            *tensor.Tensor // (F, C, KH, KW)
	B            *tensor.Tensor // (F)
	Mask         []bool         // nil = dense; else len == W.Len()

	dW, dB        *tensor.Tensor
	inCache       *tensor.Tensor
	outBuf, dxBuf *tensor.Tensor
	tapOff        []int     // Forward scratch: one filter's nonzero tap offsets
	tapW          []float64 // and their weights, in (ci, ky, kx) order
}

// NewConv returns a conv layer with Xavier-initialized weights.
func NewConv(rng *rand.Rand, f, c, kh, kw int) *Conv {
	l := &Conv{
		F: f, C: c, KH: kh, KW: kw,
		W:  tensor.New(f, c, kh, kw),
		B:  tensor.New(f),
		dW: tensor.New(f, c, kh, kw),
		dB: tensor.New(f),
	}
	fanIn := float64(c * kh * kw)
	l.W.RandNormal(rng, math.Sqrt(2.0/fanIn))
	return l
}

func (l *Conv) Kind() string { return "conv" }

func (l *Conv) OutShape(in Shape) (Shape, error) {
	if in[0] != l.C {
		return Shape{}, fmt.Errorf("dnn: conv expects %d channels, got %v", l.C, in)
	}
	oh, ow := in[1]-l.KH+1, in[2]-l.KW+1
	if oh <= 0 || ow <= 0 {
		return Shape{}, fmt.Errorf("dnn: conv kernel %dx%d larger than input %v", l.KH, l.KW, in)
	}
	return Shape{l.F, oh, ow}, nil
}

// Forward is output-stationary: each filter's nonzero taps are gathered
// once, in (ci, ky, kx) order, and every output starts at the bias and adds
// those taps in that order in a register, four adjacent outputs per pass.
// Each output's sum is therefore the same sequence of float operations a
// weight-at-a-time sweep over the output plane performs.
func (l *Conv) Forward(x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h-l.KH+1, w-l.KW+1
	out := scratch(&l.outBuf, l.F, oh, ow)
	l.inCache = x
	xd, wd, bd, od := x.Data(), l.W.Data(), l.B.Data(), out.Data()
	taps := c * l.KH * l.KW
	for f := 0; f < l.F; f++ {
		offs, ws := l.tapOff[:0], l.tapW[:0]
		fw := wd[f*taps : (f+1)*taps]
		k := 0
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					if wv := fw[k]; wv != 0 {
						offs = append(offs, (ci*h+ky)*w+kx)
						ws = append(ws, wv)
					}
					k++
				}
			}
		}
		l.tapOff, l.tapW = offs, ws
		ws = ws[:len(offs)] // lets ws[t] below skip its bounds check
		bias := bd[f]
		for oy := 0; oy < oh; oy++ {
			orow := od[(f*oh+oy)*ow:][:ow]
			xrow := xd[oy*w:]
			ox := 0
			for ; ox+4 <= ow; ox += 4 {
				s0, s1, s2, s3 := bias, bias, bias, bias
				for t, off := range offs {
					wv, xs := ws[t], xrow[off+ox:][:4]
					s0 += wv * xs[0]
					s1 += wv * xs[1]
					s2 += wv * xs[2]
					s3 += wv * xs[3]
				}
				orow[ox], orow[ox+1], orow[ox+2], orow[ox+3] = s0, s1, s2, s3
			}
			for ; ox < ow; ox++ {
				s := bias
				for t, off := range offs {
					s += ws[t] * xrow[off+ox]
				}
				orow[ox] = s
			}
		}
	}
	return out
}

func (l *Conv) Backward(dy *tensor.Tensor) *tensor.Tensor {
	x := l.inCache
	dx := scratchZero(&l.dxBuf, x.Dim(0), x.Dim(1), x.Dim(2))
	l.backward(dy, dx.Data())
	return dx
}

// backwardParams accumulates the parameter gradients Backward would, but
// skips the input gradient. Train uses it for the first layer, whose input
// gradient nothing reads.
func (l *Conv) backwardParams(dy *tensor.Tensor) { l.backward(dy, nil) }

// backward accumulates dW and dB for dy and, unless dxd is nil, adds the
// input gradient into dxd. Per filter, the weight gradients come first and
// the input gradient second; both keep the tap order of a one-weight-at-a-
// time sweep, so every sum sees the same operations in the same order.
func (l *Conv) backward(dy *tensor.Tensor, dxd []float64) {
	x := l.inCache
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := dy.Dim(1), dy.Dim(2)
	xd, wd, dyd := x.Data(), l.W.Data(), dy.Data()
	dbd := l.dB.Data()
	for f := 0; f < l.F; f++ {
		fdy := dyd[f*oh*ow : (f+1)*oh*ow]
		// Bias gradient.
		s := 0.0
		for _, d := range fdy {
			s += d
		}
		dbd[f] += s
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < l.KH; ky++ {
				l.weightGrads(((f*l.C+ci)*l.KH+ky)*l.KW, xd[(ci*h+ky)*w:], w, fdy, oh, ow)
			}
		}
		if dxd == nil {
			continue
		}
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					widx := ((f*l.C+ci)*l.KH+ky)*l.KW + kx
					if l.Mask != nil && !l.Mask[widx] {
						continue // pruned weight: no input grad
					}
					wv := wd[widx]
					for oy := 0; oy < oh; oy++ {
						dxrow := dxd[(ci*h+oy+ky)*w+kx:][:ow]
						for ox, d := range fdy[oy*ow:][:ow] {
							dxrow[ox] += wv * d
						}
					}
				}
			}
		}
	}
}

// weightGrads adds to dW the gradients of one kernel row, the KW taps from
// dW index widx on, given the input plane from that row's first tap (x,
// rows w apart) and one filter's output gradient fdy. Each tap sums dy·x
// over the output plane in (oy, ox) order; four adjacent taps are summed
// side by side. Pruned taps get no gradient.
func (l *Conv) weightGrads(widx int, x []float64, w int, fdy []float64, oh, ow int) {
	dwd := l.dW.Data()
	add := func(i int, g float64) {
		if l.Mask == nil || l.Mask[i] {
			dwd[i] += g
		}
	}
	kx := 0
	for ; kx+4 <= l.KW; kx += 4 {
		var g0, g1, g2, g3 float64
		for oy := 0; oy < oh; oy++ {
			xrow := x[oy*w+kx:][:ow+3]
			for ox, d := range fdy[oy*ow:][:ow] {
				g0 += d * xrow[ox]
				g1 += d * xrow[ox+1]
				g2 += d * xrow[ox+2]
				g3 += d * xrow[ox+3]
			}
		}
		add(widx+kx, g0)
		add(widx+kx+1, g1)
		add(widx+kx+2, g2)
		add(widx+kx+3, g3)
	}
	for ; kx < l.KW; kx++ {
		if l.Mask != nil && !l.Mask[widx+kx] {
			continue
		}
		g := 0.0
		for oy := 0; oy < oh; oy++ {
			xrow := x[oy*w+kx:][:ow]
			for ox, d := range fdy[oy*ow:][:ow] {
				g += d * xrow[ox]
			}
		}
		dwd[widx+kx] += g
	}
}

func (l *Conv) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }
func (l *Conv) Grads() []*tensor.Tensor  { return []*tensor.Tensor{l.dW, l.dB} }

// MACs counts one multiply-accumulate per retained weight per output
// position.
func (l *Conv) MACs(in Shape) int {
	oh, ow := in[1]-l.KH+1, in[2]-l.KW+1
	return l.retained() * oh * ow
}

func (l *Conv) retained() int {
	if l.Mask == nil {
		return l.W.Len()
	}
	n := 0
	for _, m := range l.Mask {
		if m {
			n++
		}
	}
	return n
}

// ParamCount counts retained weights plus biases.
func (l *Conv) ParamCount() int { return l.retained() + l.F }

// ApplyMask zeroes all pruned weights; call after every optimizer step.
func (l *Conv) ApplyMask() {
	if l.Mask == nil {
		return
	}
	for i, m := range l.Mask {
		if !m {
			l.W.Data()[i] = 0
		}
	}
}

// Prune installs a pruning mask dropping weights with |w| <= threshold and
// zeroes them. It returns the number of retained weights.
func (l *Conv) Prune(threshold float64) int {
	l.Mask = make([]bool, l.W.Len())
	for i, v := range l.W.Data() {
		l.Mask[i] = math.Abs(v) > threshold
	}
	l.ApplyMask()
	return l.retained()
}

// ensureGrads (re)creates gradient buffers after deserialization.
func (l *Conv) ensureGrads() {
	if l.dW == nil {
		l.dW = tensor.New(l.F, l.C, l.KH, l.KW)
		l.dB = tensor.New(l.F)
	}
}
