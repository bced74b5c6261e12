package dnn

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/tensor"
)

// The references below are the weight-stationary conv kernels and the
// row-at-a-time dense forward that the blocked kernels replaced. Training
// results are pinned to their exact operation order, so the blocked
// kernels must reproduce them bit for bit, not approximately.

// refConvForward sweeps each nonzero weight over the whole output plane,
// accumulating into outputs that start at the bias.
func refConvForward(l *Conv, x *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h-l.KH+1, w-l.KW+1
	out := tensor.New(l.F, oh, ow)
	xd, wd, od := x.Data(), l.W.Data(), out.Data()
	for f := 0; f < l.F; f++ {
		bias := l.B.Data()[f]
		obase := f * oh * ow
		for i := obase; i < obase+oh*ow; i++ {
			od[i] = bias
		}
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					wv := wd[((f*l.C+ci)*l.KH+ky)*l.KW+kx]
					if wv == 0 {
						continue
					}
					for oy := 0; oy < oh; oy++ {
						xrow := xd[(ci*h+oy+ky)*w+kx:]
						orow := od[obase+oy*ow:]
						for ox := 0; ox < ow; ox++ {
							orow[ox] += wv * xrow[ox]
						}
					}
				}
			}
		}
	}
	return out
}

// refConvBackward accumulates into dW and dB and returns dx, one weight at
// a time.
func refConvBackward(l *Conv, x, dy, dW, dB *tensor.Tensor) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := dy.Dim(1), dy.Dim(2)
	dx := tensor.New(c, h, w)
	xd, wd, dyd := x.Data(), l.W.Data(), dy.Data()
	dwd, dxd := dW.Data(), dx.Data()
	for f := 0; f < l.F; f++ {
		obase := f * oh * ow
		s := 0.0
		for i := obase; i < obase+oh*ow; i++ {
			s += dyd[i]
		}
		dB.Data()[f] += s
		for ci := 0; ci < c; ci++ {
			for ky := 0; ky < l.KH; ky++ {
				for kx := 0; kx < l.KW; kx++ {
					widx := ((f*l.C+ci)*l.KH+ky)*l.KW + kx
					if l.Mask != nil && !l.Mask[widx] {
						continue
					}
					wv := wd[widx]
					g := 0.0
					for oy := 0; oy < oh; oy++ {
						xrow := xd[(ci*h+oy+ky)*w+kx:]
						dyrow := dyd[obase+oy*ow:]
						xbase := (ci*h + oy + ky) * w
						for ox := 0; ox < ow; ox++ {
							g += dyrow[ox] * xrow[ox]
							dxd[xbase+kx+ox] += wv * dyrow[ox]
						}
					}
					dwd[widx] += g
				}
			}
		}
	}
	return dx
}

// refDenseForward computes one output row at a time.
func refDenseForward(l *Dense, x *tensor.Tensor) *tensor.Tensor {
	xd := x.Data()
	out := tensor.New(1, 1, l.Out)
	od, wd := out.Data(), l.W.Data()
	for o := 0; o < l.Out; o++ {
		row := wd[o*l.In : (o+1)*l.In]
		s := l.B.Data()[o]
		for i, w := range row {
			s += w * xd[i]
		}
		od[o] = s
	}
	return out
}

// spiky fills t with Gaussian values, about a fifth of them replaced by
// +0 or -0, so kernels meet exact zeros and signed zeros.
func spiky(rng *rand.Rand, t *tensor.Tensor) {
	for i := range t.Data() {
		switch v := rng.Float64(); {
		case v < 0.1:
			t.Data()[i] = 0
		case v < 0.2:
			t.Data()[i] = math.Copysign(0, -1)
		default:
			t.Data()[i] = rng.NormFloat64()
		}
	}
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchReference checks the blocked Conv.Forward, Conv.Backward,
// the params-only conv backward and the blocked Dense.Forward against the
// references above, bit for bit, over seeded random shapes: 1, 3 and 5
// wide kernels, one and several channels, output widths below 4 and not a
// multiple of 4, pruning masks, exact-zero weights and signed zeros.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 7))
	ks := []int{1, 3, 5}
	for trial := 0; trial < 300; trial++ {
		f, c := 1+rng.IntN(6), 1+rng.IntN(3)
		kh, kw := ks[rng.IntN(3)], ks[rng.IntN(3)]
		oh, ow := 1+rng.IntN(6), 1+rng.IntN(10)
		l := NewConv(rng, f, c, kh, kw)
		spiky(rng, l.W)
		spiky(rng, l.B)
		if rng.IntN(2) == 0 {
			l.Prune(0.5)
		}
		x := tensor.New(c, oh+kh-1, ow+kw-1)
		spiky(rng, x)
		dy := tensor.New(f, oh, ow)
		spiky(rng, dy)
		dW0, dB0 := tensor.New(f, c, kh, kw), tensor.New(f)
		spiky(rng, dW0)
		spiky(rng, dB0)

		bitsEqual(t, "conv out", l.Forward(x).Data(), refConvForward(l, x).Data())

		wantDW, wantDB := dW0.Clone(), dB0.Clone()
		wantDX := refConvBackward(l, x, dy, wantDW, wantDB)
		copy(l.dW.Data(), dW0.Data())
		copy(l.dB.Data(), dB0.Data())
		bitsEqual(t, "conv dx", l.Backward(dy).Data(), wantDX.Data())
		bitsEqual(t, "conv dW", l.dW.Data(), wantDW.Data())
		bitsEqual(t, "conv dB", l.dB.Data(), wantDB.Data())

		copy(l.dW.Data(), dW0.Data())
		copy(l.dB.Data(), dB0.Data())
		l.Forward(x)
		l.backwardParams(dy)
		bitsEqual(t, "conv params-only dW", l.dW.Data(), wantDW.Data())
		bitsEqual(t, "conv params-only dB", l.dB.Data(), wantDB.Data())

		out, in := 1+rng.IntN(13), 1+rng.IntN(40)
		d := NewDense(rng, out, in)
		spiky(rng, d.W)
		spiky(rng, d.B)
		xv := tensor.New(1, 1, in)
		spiky(rng, xv)
		bitsEqual(t, "dense out", d.Forward(xv).Data(), refDenseForward(d, xv).Data())
	}
}

// TestTrainAllocFree guards the steady-state training step: a training run
// over 240 samples must allocate no more than one over a single sample, so
// nothing in Forward, Backward or the optimizer step allocates per sample.
// The pruned case covers masked convs and sparse dense layers, the shapes
// GENESIS fine-tunes.
func TestTrainAllocFree(t *testing.T) {
	pruned := OkGNet(1)
	pruned.Layers[0].(*Conv).Prune(0.1)
	pruned.Layers[4] = NewSparseDense(pruned.Layers[4].(*Dense), 0.05)
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"mnist", MNISTNet(1)},
		{"har", HARNet(1)},
		{"okg", OkGNet(1)},
		{"okg-pruned", pruned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := DatasetFor(tc.net.Name, 1, 240, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultTrainConfig()
			cfg.Epochs = 1
			allocs := func(samples int) float64 {
				cfg.MaxSamplesPerEpoch = samples
				return testing.AllocsPerRun(1, func() { Train(tc.net, ds, cfg) })
			}
			one, many := allocs(1), allocs(240)
			if many > one {
				t.Errorf("Train allocates %.0f times over 240 samples but %.0f over 1: the training step allocates", many, one)
			}
		})
	}
}
