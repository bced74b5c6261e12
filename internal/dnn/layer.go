// Package dnn is a from-scratch deep neural network library sized for the
// networks the paper deploys: small convolutional and fully-connected
// classifiers. It provides float64 training (forward, backprop, SGD with
// momentum), inference, pruning masks, MAC/parameter accounting, Q15
// post-training quantization, and gob serialization.
//
// Training runs per-sample (batch size 1), matching how the embedded device
// sees data and keeping the implementation simple and allocation-light.
package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Shape describes an activation volume as (channels, height, width).
type Shape [3]int

// Len returns the number of elements in the volume.
func (s Shape) Len() int { return s[0] * s[1] * s[2] }

// Flat returns the shape flattened to a single vector dimension.
func (s Shape) Flat() Shape { return Shape{1, 1, s.Len()} }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]) }

// Layer is one stage of a network. Forward and Backward operate on a single
// sample; Backward must be called after the corresponding Forward (layers
// cache whatever they need) and accumulates parameter gradients internally.
type Layer interface {
	// Kind returns a short identifier ("conv", "dense", ...).
	Kind() string
	// OutShape returns the output volume for a given input volume, or an
	// error if the input is incompatible.
	OutShape(in Shape) (Shape, error)
	// Forward computes the layer output for one sample.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward takes dLoss/dOutput and returns dLoss/dInput, accumulating
	// parameter gradients.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors matching Params element-for-element.
	Grads() []*tensor.Tensor
	// MACs returns the multiply-accumulate operations one inference
	// through this layer performs for the given input volume.
	MACs(in Shape) int
	// ParamCount returns the number of stored parameters (for pruned
	// layers, only the retained ones).
	ParamCount() int
}

// ReLU is an elementwise rectifier.
type ReLU struct {
	mask []bool

	outBuf, dxBuf *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

func (r *ReLU) Kind() string { return "relu" }

func (r *ReLU) OutShape(in Shape) (Shape, error) { return in, nil }

func (r *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := scratch(&r.outBuf, x.Shape()...)
	if cap(r.mask) < x.Len() {
		r.mask = make([]bool, x.Len())
	}
	r.mask = r.mask[:x.Len()]
	od := out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			r.mask[i] = true
			od[i] = v
		} else {
			r.mask[i] = false
			od[i] = 0
		}
	}
	return out
}

func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := scratch(&r.dxBuf, dy.Shape()...)
	dxd := dx.Data()
	for i, v := range dy.Data() {
		if r.mask[i] {
			dxd[i] = v
		} else {
			dxd[i] = 0
		}
	}
	return dx
}

func (r *ReLU) Params() []*tensor.Tensor { return nil }
func (r *ReLU) Grads() []*tensor.Tensor  { return nil }
func (r *ReLU) MACs(in Shape) int        { return 0 }
func (r *ReLU) ParamCount() int          { return 0 }

// MaxPool is a 2-D max pooling layer with a square window and equal stride.
type MaxPool struct {
	Window int

	inShape       Shape
	argmax        []int
	outBuf, dxBuf *tensor.Tensor
}

// NewMaxPool returns a max-pooling layer with the given window size
// (window 2 halves each spatial dimension).
func NewMaxPool(window int) *MaxPool { return &MaxPool{Window: window} }

func (p *MaxPool) Kind() string { return "pool" }

func (p *MaxPool) OutShape(in Shape) (Shape, error) {
	if in[1]%p.Window != 0 || in[2]%p.Window != 0 {
		return Shape{}, fmt.Errorf("dnn: pool window %d does not divide input %v", p.Window, in)
	}
	return Shape{in[0], in[1] / p.Window, in[2] / p.Window}, nil
}

func (p *MaxPool) Forward(x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h/p.Window, w/p.Window
	out := scratch(&p.outBuf, c, oh, ow)
	p.inShape = Shape{c, h, w}
	if cap(p.argmax) < out.Len() {
		p.argmax = make([]int, out.Len())
	}
	p.argmax = p.argmax[:out.Len()]
	xi := x.Data()
	oi := out.Data()
	n := 0
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bidx := -1e300, 0
				for ky := 0; ky < p.Window; ky++ {
					for kx := 0; kx < p.Window; kx++ {
						idx := (ci*h+(oy*p.Window+ky))*w + ox*p.Window + kx
						if xi[idx] > best {
							best, bidx = xi[idx], idx
						}
					}
				}
				oi[n] = best
				p.argmax[n] = bidx
				n++
			}
		}
	}
	return out
}

func (p *MaxPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := scratchZero(&p.dxBuf, p.inShape[0], p.inShape[1], p.inShape[2])
	dxd := dx.Data()
	for i, src := range p.argmax {
		dxd[src] += dy.Data()[i]
	}
	return dx
}

func (p *MaxPool) Params() []*tensor.Tensor { return nil }
func (p *MaxPool) Grads() []*tensor.Tensor  { return nil }
func (p *MaxPool) MACs(in Shape) int        { return 0 }
func (p *MaxPool) ParamCount() int          { return 0 }

// Flatten reshapes a volume into a vector; data layout is unchanged.
type Flatten struct {
	inShape       Shape
	outBuf, dxBuf *tensor.Tensor // reused views, see view
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

func (f *Flatten) Kind() string { return "flatten" }

func (f *Flatten) OutShape(in Shape) (Shape, error) { return in.Flat(), nil }

func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = Shape{x.Dim(0), x.Dim(1), x.Dim(2)}
	return view(&f.outBuf, x, 1, 1, x.Len())
}

func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return view(&f.dxBuf, dy, f.inShape[0], f.inShape[1], f.inShape[2])
}

func (f *Flatten) Params() []*tensor.Tensor { return nil }
func (f *Flatten) Grads() []*tensor.Tensor  { return nil }
func (f *Flatten) MACs(in Shape) int        { return 0 }
func (f *Flatten) ParamCount() int          { return 0 }
