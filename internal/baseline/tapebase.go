package baseline

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// tapeBaseLayer executes one layer with register-state loops from the
// compiled program, returning the new buffer parity. The conv weight
// decode is read from tables and every per-attempt buffer comes from
// pooled scratch; dense, sparse, and pooling kernels are decode-free.
// TestExecutorGolden pins the op stream it issues.
func tapeBaseLayer(dev *mcu.Device, img *core.Image, prog *tape.Program, li int,
	parity bool, sc *tape.Scratch) bool {
	l := &img.Layers[li]
	q := l.Q
	tl := &prog.Layers[li]
	src, dst := actBufs(img, parity)
	dev.SetSection(tl.Name, mcu.PhaseControl)

	switch q.Kind {
	case dnn.QConv:
		tapeBaseConv(dev, img, prog, l, tl, src, dst, sc)
	case dnn.QDense:
		baseDense(dev, l, tl.Name, src, dst)
	case dnn.QSparseDense:
		baseSparseDense(dev, l, tl.Name, src, dst)
	case dnn.QReLU:
		dev.SetSection(tl.Name, mcu.PhaseKernel)
		n := q.InShape.Len()
		dev.Ops(mcu.OpBranch, n)
		dev.LoadRange(src, 0, n)
		vals := sc.Out[:n]
		kern.ReLU(vals, src.ROWords(), 0, 0, n)
		dev.StoreRange(dst, 0, vals)
	case dnn.QPool:
		basePool(dev, q, tl.Name, src, dst)
	case dnn.QFlatten:
		return parity // identity: no copy, no parity flip
	}
	return !parity
}

// tapeBaseConv computes a (possibly pruned) convolution, accumulating
// each output row with one macro-op MAC. The weight traversal order
// matches the host reference exactly. The per-element (kx, ky, ci, f)
// decode comes from the program's WSrc/WAccBase tables, and the zero/row/
// finalize buffers are drawn from scratch.
func tapeBaseConv(dev *mcu.Device, img *core.Image, prog *tape.Program,
	l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, sc *tape.Scratch) {
	q := l.Q
	w := q.InShape[2]
	oh, ow := q.OutShape[1], q.OutShape[2]
	positions := tl.Positions
	dev.SetSection(tl.Name, mcu.PhaseKernel)

	// Zero the wide accumulators, then sweep filter elements, then
	// finalize. Even Base uses the filter-element-major order (it is also
	// the cache-friendly order on a machine with no cache, and keeps the
	// arithmetic identical across implementations); its advantage over
	// SONIC is purely that loop indices and partials needing no
	// protection stay in registers where possible. Partials for all
	// positions do not fit in registers, so they live in AccA like
	// everyone else's — but without double buffering or index writes.
	acc := img.AccA
	n := q.F * positions
	dev.Ops(mcu.OpBranch, n)
	dev.StoreRange(acc, 0, prog.Zeros(n))
	row := sc.Row[:ow]
	// Charges stay bulk (MACRange/StoreRange); the value computation runs
	// over the raw backing words — Get has no side effects, so the hoist
	// is unconditionally equivalent.
	srcW, accW := src.ROWords(), acc.ROWords()
	apply := func(widx int) {
		wv := fixed.Q15(dev.Load(l.W, widx))
		srcRow := int(tl.WSrc[widx])
		accRow := int(tl.WAccBase[widx])
		for oy := 0; oy < oh; oy++ {
			dev.MACRange(src, srcRow, acc, accRow, ow)
			kern.MACRow(row, accW, srcW, accRow, srcRow, ow, int64(wv))
			dev.StoreRange(acc, accRow, row)
			srcRow += w
			accRow += ow
		}
	}
	if l.NZ != nil {
		for p := 0; p < l.NZ.Len(); p++ {
			dev.Op(mcu.OpBranch)
			apply(int(dev.Load(l.NZ, p)))
		}
	} else {
		for widx := 0; widx < l.W.Len(); widx++ {
			dev.Op(mcu.OpBranch)
			apply(widx)
		}
	}
	// Finalize: bias and rescale into Q15 activations.
	out := sc.Out[:positions]
	for f := 0; f < q.F; f++ {
		b := fixed.Q15(dev.Load(l.B, f))
		base := f * positions
		dev.Ops(mcu.OpBranch, positions)
		dev.LoadRange(acc, base, positions)
		dev.Ops(mcu.OpFixedAdd, positions)
		kern.FinalizeConst(out, accW, int64(b), 0, base, positions, q.Shift)
		dev.StoreRange(dst, base, out)
	}
}
