// Package baseline implements the two comparison points of the paper's
// evaluation (§8):
//
//   - Base: a standard DNN inference implementation with no intermittence
//     support. It keeps loop state in volatile registers and accumulates
//     dot products in registers, so it is fast — but after a power failure
//     it can only restart from the beginning, and on power systems whose
//     buffer is smaller than a whole inference it never completes.
//
//   - Tile-k: inference ported to the Alpaca-style task runtime
//     (package task), with each layer's inner loop split into tasks of k
//     iterations, as in the paper's Fig. 6. Task-shared data (the partial
//     accumulators and loop indices) pay redo-logging on every write and
//     commit at every transition, reproducing the overhead structure of
//     prior task-based systems.
//
// Both produce bit-identical logits to dnn.QuantModel.Forward; the
// difference is cost and whether they tolerate intermittent power.
package baseline

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// Base is the unprotected straight-line implementation. It executes from
// the model's compiled op tape (internal/tape): the model compiles once
// per process, and the conv weight decode and every per-attempt
// allocation stay off the retry path.
type Base struct{}

// Name identifies the runtime.
func (Base) Name() string { return "base" }

// Infer runs one inference. Under intermittent power the whole inference
// restarts from scratch on every failure; if it cannot finish within one
// charge cycle it returns mcu.ErrDoesNotComplete.
func (b Base) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	return b.ResumeInfer(img, nil)
}

// ResumeInfer implements core.Resumer: Infer minus LoadInput, with an
// optional pre-attempt hook for restoring a forked prefix.
func (b Base) ResumeInfer(img *core.Image, atReboot func() error) ([]fixed.Q15, error) {
	dev := img.Dev
	dev.Emit(mcu.TraceRunBegin, "base", 0)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	prog := tape.Get(img.Model)
	sc := prog.GetScratch()
	defer prog.PutScratch(sc)
	var outB bool
	err := dev.Run(func() {
		parity := false // input in ActA
		for li := range img.Layers {
			parity = tapeBaseLayer(dev, img, prog, li, parity, sc)
		}
		outB = parity
	})
	if err != nil {
		return nil, err
	}
	dev.FlushTrace()
	return img.ReadOutput(outB), nil
}

// actBufs returns (src, dst) activation buffers for the given parity.
func actBufs(img *core.Image, parity bool) (*mem.Region, *mem.Region) {
	if parity {
		return img.ActB, img.ActA
	}
	return img.ActA, img.ActB
}

// baseDense computes a fully-connected layer one output at a time with a
// register accumulator.
func baseDense(dev *mcu.Device, l *core.LayerImage, name string, src, dst *mem.Region) {
	q := l.Q
	dev.SetSection(name, mcu.PhaseKernel)
	for o := 0; o < q.Out; o++ {
		var acc fixed.Acc
		row := o * q.In
		dev.MACRange(l.W, row, src, 0, q.In)
		for i := 0; i < q.In; i++ {
			acc = acc.MAC(fixed.Q15(l.W.Get(row+i)), fixed.Q15(src.Get(i)))
		}
		b := fixed.Q15(dev.Load(l.B, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(acc.AddQ(b).SatShiftSigned(q.Shift)))
	}
}

// baseSparseDense walks the CSR rows with a register accumulator.
func baseSparseDense(dev *mcu.Device, l *core.LayerImage, name string, src, dst *mem.Region) {
	q := l.Q
	dev.SetSection(name, mcu.PhaseKernel)
	for o := 0; o < q.Out; o++ {
		var acc fixed.Acc
		lo := int(dev.Load(l.RowPtr, o))
		hi := int(dev.Load(l.RowPtr, o+1))
		cnt := hi - lo
		// Bulk-charge the uniform per-entry work; the activation loads
		// stay scalar because the CSR column gather is not contiguous.
		dev.Ops(mcu.OpBranch, cnt)
		dev.LoadRange(l.W, lo, cnt)
		dev.LoadRange(l.Cols, lo, cnt)
		dev.Ops(mcu.OpFixedMul, cnt)
		dev.Ops(mcu.OpFixedAdd, cnt)
		for p := lo; p < hi; p++ {
			wv := fixed.Q15(l.W.Get(p))
			c := int(l.Cols.Get(p))
			x := fixed.Q15(dev.Load(src, c))
			acc = acc.MAC(wv, x)
		}
		b := fixed.Q15(dev.Load(l.B, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(acc.AddQ(b).SatShiftSigned(q.Shift)))
	}
}

// basePool computes max pooling.
func basePool(dev *mcu.Device, q *dnn.QuantLayer, name string, src, dst *mem.Region) {
	dev.SetSection(name, mcu.PhaseKernel)
	c, h, w := q.InShape[0], q.InShape[1], q.InShape[2]
	oh, ow := h/q.Window, w/q.Window
	n := 0
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := fixed.MinusOne
				dev.Ops(mcu.OpBranch, q.Window*q.Window)
				for ky := 0; ky < q.Window; ky++ {
					rowStart := (ci*h+oy*q.Window+ky)*w + ox*q.Window
					dev.LoadRange(src, rowStart, q.Window)
					for kx := 0; kx < q.Window; kx++ {
						best = fixed.Max(best, fixed.Q15(src.Get(rowStart+kx)))
					}
				}
				dev.Store(dst, n, int64(best))
				n++
			}
		}
	}
}
