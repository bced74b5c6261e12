package baseline

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
	"repro/internal/task"
)

// Tile is DNN inference ported onto the Alpaca-style task runtime with a
// fixed tiling: each task executes TileSize loop iterations, then
// transitions (committing its redo log). The paper evaluates Tile-8,
// Tile-32, and Tile-128.
//
// Iteration granularity mirrors SONIC's loop structure (Fig. 6/7): a
// convolution iteration applies one filter element across all output
// positions; a dense fully-connected iteration applies one input element
// across all outputs; a sparse fully-connected iteration applies one
// nonzero weight; activation and pooling iterations produce one output
// element. All partial accumulators are task-shared, so every update pays
// redo-logging — the cost SONIC eliminates.
type Tile struct {
	TileSize int
	// LogEntries sizes the runtime redo log (default DefaultLogEntries).
	LogEntries int
}

// DefaultLogEntries is sized for the largest per-task write set: a tile of
// per-MAC iterations writes at most TileSize distinct partials plus the
// loop cursor.
const DefaultLogEntries = 512

// Name identifies the runtime, e.g. "tile-32".
func (t Tile) Name() string { return fmt.Sprintf("tile-%d", t.TileSize) }

// ctl-slot index within the image control block used for the pass cursor.
const tileCursorSlot = 0

// minBulk is the chunk size below which a rangeFn falls back to the scalar
// pass body: tiny chunks don't amortize the Range machinery.
const minBulk = 4

// loadKind returns the load op kind for a region's memory (the tile
// rangeFns charge repeated or strided loads of read-only data in bulk).
func loadKind(r *mem.Region) mcu.OpKind {
	if r.Kind() == mem.FRAM {
		return mcu.OpLoadFRAM
	}
	return mcu.OpLoadSRAM
}

// Infer builds the task graph over the deployed image and drives it to
// completion.
func (t Tile) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	return t.ResumeInfer(img, nil)
}

// ResumeInfer implements core.Resumer: the full task-graph setup (runtime
// allocation, sharing, building, Start) runs first, then atReboot — whose
// prefix restore overwrites the setup's nonvolatile state — then the run.
func (t Tile) ResumeInfer(img *core.Image, atReboot func() error) ([]fixed.Q15, error) {
	if t.TileSize <= 0 {
		return nil, fmt.Errorf("baseline: invalid tile size %d", t.TileSize)
	}
	logEntries := t.LogEntries
	if logEntries == 0 {
		logEntries = DefaultLogEntries
	}
	rt, err := task.New(img.Dev, logEntries)
	if err != nil {
		return nil, fmt.Errorf("baseline: allocating task runtime: %w", err)
	}
	defer rt.Release()

	for _, r := range []*mem.Region{img.ActA, img.ActB, img.AccA, img.AccB, img.Ctl} {
		if r != nil {
			rt.Share(r)
		}
	}

	b := tileBuilder{img: img, rt: rt, k: t.TileSize, prog: tape.Get(img.Model)}
	outB, err := b.build()
	if err != nil {
		return nil, err
	}
	img.Dev.Emit(mcu.TraceRunBegin, t.Name(), int64(t.TileSize))
	rt.Start(0)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	if err := rt.Run(); err != nil {
		return nil, err
	}
	img.Dev.FlushTrace()
	return img.ReadOutput(outB), nil
}

// passFn executes one loop iteration of a pass.
type passFn func(c *task.Ctx, iter int)

// rangeFn executes iterations [lo, hi) of a pass in one call. Providers
// bulk-charge uniform chunks through the device's Range macro-ops and the
// task runtime's ReadRange/WriteRange, falling back to the scalar passFn
// body per iteration where bulking is illegal (privatized words, scattered
// accesses). The charged op multiset per iteration is identical to the
// scalar body's.
type rangeFn func(c *task.Ctx, lo, hi int)

// addPassFn registers a pass: name, layer label, iteration count, scalar
// body, and optional bulk range body (nil for scalar-only passes).
type addPassFn func(name, layer string, n int, f passFn, fr rangeFn)

// tileBuilder assembles the per-layer pass tasks. Because the layer graph
// is static, each task closes over its source/destination buffers; only
// loop cursors live in task-shared memory.
type tileBuilder struct {
	img *core.Image
	rt  *task.Runtime
	k   int
	// prog supplies the pre-decoded per-layer tables: section labels and
	// the conv and pooling coordinate decodes.
	prog *tape.Program
}

// build creates all tasks in execution order; task 0 is the entry. It
// returns the parity of the buffer holding the final output.
func (b *tileBuilder) build() (bool, error) {
	parity := false
	var passes []struct {
		name  string
		layer string
		n     int
		f     passFn
		fr    rangeFn
	}
	addPass := func(name, layer string, n int, f passFn, fr rangeFn) {
		passes = append(passes, struct {
			name  string
			layer string
			n     int
			f     passFn
			fr    rangeFn
		}{name, layer, n, f, fr})
	}

	for li := range b.img.Layers {
		l := &b.img.Layers[li]
		q := l.Q
		src, dst := actBufs(b.img, parity)
		tl := &b.prog.Layers[li]
		layer := tl.Name
		switch q.Kind {
		case dnn.QConv:
			b.convPasses(addPass, l, tl, src, dst)
			parity = !parity
		case dnn.QDense:
			b.densePasses(addPass, l, layer, src, dst)
			parity = !parity
		case dnn.QSparseDense:
			b.sparsePasses(addPass, l, layer, src, dst)
			parity = !parity
		case dnn.QReLU:
			n := q.InShape.Len()
			reluIter := func(c *task.Ctx, i int) {
				dev := c.Dev()
				dev.Op(mcu.OpBranch)
				v := fixed.ReLU(fixed.Q15(c.Read(src, i)))
				c.Write(dst, i, int64(v))
			}
			vals := make([]int64, b.k)
			addPass("relu", layer, n, reluIter, func(c *task.Ctx, lo, hi int) {
				nn := hi - lo
				if nn < minBulk || !c.Fresh(src, lo, nn) || !c.Fresh(dst, lo, nn) {
					for i := lo; i < hi; i++ {
						reluIter(c, i)
					}
					return
				}
				c.Dev().Ops(mcu.OpBranch, nn)
				c.ReadRange(src, lo, nn)
				kern.ReLU(vals, src.ROWords(), 0, lo, nn)
				c.WriteRange(dst, lo, vals[:nn])
			})
			parity = !parity
		case dnn.QPool:
			b.poolPass(addPass, q, tl, src, dst)
			parity = !parity
		case dnn.QFlatten:
			// identity
		}
	}

	// Materialize each pass as one self-transitioning task over a shared
	// cursor in the control block. Each pass's two attribution sections
	// are pre-resolved into tokens, so no activation constructs a Section.
	ctl := b.img.Ctl
	for pi := range passes {
		p := passes[pi]
		next := task.ID(pi + 1)
		if pi == len(passes)-1 {
			next = task.Done
		}
		self := task.ID(pi)
		body := func(c *task.Ctx, base int) (int, task.ID) {
			end := base + b.k
			if end > p.n {
				end = p.n
			}
			if p.fr != nil {
				p.fr(c, base, end)
			} else {
				for i := base; i < end; i++ {
					p.f(c, i)
				}
			}
			if end >= p.n {
				return end, next
			}
			return end, self
		}
		tokC := b.img.Dev.SectionToken(p.layer, mcu.PhaseControl)
		tokK := b.img.Dev.SectionToken(p.layer, mcu.PhaseKernel)
		b.rt.Add(p.name, func(c *task.Ctx) task.ID {
			dev := c.Dev()
			dev.SetSectionTok(tokC)
			base := int(c.Read(ctl, tileCursorSlot))
			dev.SetSectionTok(tokK)
			end, to := body(c, base)
			dev.SetSectionTok(tokC)
			if to != self {
				c.Write(ctl, tileCursorSlot, 0) // reset for next pass
			} else {
				c.Write(ctl, tileCursorSlot, int64(end))
			}
			return to
		})
	}
	return parity, nil
}

// convPasses emits the zero-init (sparse only), accumulate, and finalize
// passes for a convolution. An accumulate iteration is one multiply-
// accumulate — "a[i] += b[i] × c" exactly as in the paper's Fig. 6 — on
// the task-shared partial buffer, so every iteration pays privatization.
func (b *tileBuilder) convPasses(addPass addPassFn,
	l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region) {
	q := l.Q
	ow := q.OutShape[2]
	positions := tl.Positions
	acc := b.img.AccA
	layer := tl.Name

	// Compiled decode tables: per weight index the unpacked filter
	// coordinates folded into base offsets, per output position its
	// row-major input offset. They replace the div/mod chains the kernel
	// closure would otherwise recompute on every MAC.
	wSrc, wAcc, posTab := tl.WSrc, tl.WAccBase, tl.PosOff
	wFirst := tl.First // dense layout only: indexed by widx == walked pos

	// apply performs one MAC: filter element `e` at output position `i`.
	apply := func(c *task.Ctx, e, i int) {
		dev := c.Dev()
		widx := e
		if l.NZ != nil {
			widx = int(dev.Load(l.NZ, e))
		}
		first := l.NZ == nil && wFirst[widx]
		wv := fixed.Q15(dev.Load(l.W, widx))
		x := fixed.Q15(dev.Load(src, int(wSrc[widx])+int(posTab[i])))
		dev.Op(mcu.OpFixedMul)
		pos := int(wAcc[widx]) + i
		var a fixed.Acc
		if !first {
			a = fixed.Acc(c.Read(acc, pos))
			dev.Op(mcu.OpFixedAdd)
		}
		c.Write(acc, pos, int64(a.MAC(wv, x)))
	}

	if l.NZ != nil {
		total := q.F * positions
		zeroIter := func(c *task.Ctx, i int) {
			c.Dev().Op(mcu.OpBranch)
			c.Write(acc, i, 0)
		}
		zeros := make([]int64, b.k)
		addPass("conv-zero", layer, total, zeroIter, func(c *task.Ctx, lo, hi int) {
			n := hi - lo
			if n < minBulk || !c.Fresh(acc, lo, n) {
				for i := lo; i < hi; i++ {
					zeroIter(c, i)
				}
				return
			}
			c.Dev().Ops(mcu.OpBranch, n)
			c.WriteRange(acc, lo, zeros[:n])
		})
	}

	// accIter is the scalar conv-acc body; accRange (dense weights only)
	// is its bulk form, chunked by filter element and output row so every
	// charged range is uniform in op kinds and contiguous in memory.
	accIter := func(c *task.Ctx, it int) {
		c.Dev().Op(mcu.OpBranch)
		apply(c, it/positions, it%positions)
	}
	var accRange rangeFn
	if l.NZ == nil {
		vals := make([]int64, b.k)
		wKind := loadKind(l.W)
		accRange = func(c *task.Ctx, lo, hi int) {
			dev := c.Dev()
			for lo < hi {
				e, i0 := lo/positions, lo%positions
				n := hi - lo
				if m := positions - i0; m < n {
					n = m // one filter element
				}
				if m := ow - i0%ow; m < n {
					n = m // one output row: contiguous source loads
				}
				first := wFirst[e]
				pos0 := int(wAcc[e]) + i0
				// For accumulating chunks the privatization probe and the
				// accumulator-generation read are one ReadRange call, so the
				// write-set epoch table is scanned once as the gate instead
				// of a Fresh scan followed by a second ReadRange scan. The
				// chunk's charge order is a bulk regrouping either way.
				bulk := n >= minBulk
				if bulk && first {
					bulk = c.Fresh(acc, pos0, n)
				} else if bulk {
					bulk = c.ReadRange(acc, pos0, n)
				}
				if !bulk {
					for j := 0; j < n; j++ {
						accIter(c, lo+j)
					}
					lo += n
					continue
				}
				dev.Ops(mcu.OpBranch, n)
				// n loads of the same read-only weight word, bulk-charged;
				// per-word shadow records only matter for words that are
				// later written, which deployed weights never are.
				dev.Ops(wKind, n)
				wv := fixed.Q15(l.W.Get(e))
				srcStart := int(wSrc[e]) + int(posTab[i0])
				dev.LoadRange(src, srcStart, n)
				dev.Ops(mcu.OpFixedMul, n)
				if !first {
					dev.Ops(mcu.OpFixedAdd, n)
					kern.MACRow(vals, acc.ROWords(), src.ROWords(), pos0, srcStart, n, int64(wv))
				} else {
					kern.MulRow(vals, src.ROWords(), srcStart, n, int64(wv))
				}
				c.WriteRange(acc, pos0, vals[:n])
				lo += n
			}
		}
	}
	addPass("conv-acc", layer, tl.Elems*positions, accIter, accRange)

	finIter := func(c *task.Ctx, i int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		f := i / positions
		bq := fixed.Q15(dev.Load(l.B, f))
		a := fixed.Acc(c.Read(acc, i))
		dev.Op(mcu.OpFixedAdd)
		c.Write(dst, i, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	finVals := make([]int64, b.k)
	bKind := loadKind(l.B)
	addPass("conv-fin", layer, q.F*positions, finIter, func(c *task.Ctx, lo, hi int) {
		dev := c.Dev()
		for lo < hi {
			f := lo / positions
			n := hi - lo
			if m := positions - lo%positions; m < n {
				n = m // one filter: a single bias word
			}
			if n < minBulk || !c.Fresh(acc, lo, n) || !c.Fresh(dst, lo, n) {
				for j := 0; j < n; j++ {
					finIter(c, lo+j)
				}
				lo += n
				continue
			}
			dev.Ops(mcu.OpBranch, n)
			dev.Ops(bKind, n) // n loads of the same read-only bias word
			bq := fixed.Q15(l.B.Get(f))
			c.ReadRange(acc, lo, n)
			dev.Ops(mcu.OpFixedAdd, n)
			kern.FinalizeConst(finVals, acc.ROWords(), int64(bq), 0, lo, n, q.Shift)
			c.WriteRange(dst, lo, finVals[:n])
			lo += n
		}
	})
}

// densePasses emits the accumulate and finalize passes for a dense
// fully-connected layer; one iteration is one MAC on the task-shared
// partial of output o by input element i.
func (b *tileBuilder) densePasses(addPass addPassFn,
	l *core.LayerImage, layer string, src, dst *mem.Region) {
	q := l.Q
	acc := b.img.AccA
	accIter := func(c *task.Ctx, it int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		i, o := it/q.Out, it%q.Out
		x := fixed.Q15(dev.Load(src, i))
		wv := fixed.Q15(dev.Load(l.W, o*q.In+i))
		dev.Op(mcu.OpFixedMul)
		var a fixed.Acc
		if i > 0 {
			a = fixed.Acc(c.Read(acc, o))
			dev.Op(mcu.OpFixedAdd)
		}
		c.Write(acc, o, int64(a.MAC(wv, x)))
	}
	vals := make([]int64, b.k)
	wKind, srcKind := loadKind(l.W), loadKind(src)
	addPass("fc-acc", layer, q.In*q.Out, accIter, func(c *task.Ctx, lo, hi int) {
		dev := c.Dev()
		for lo < hi {
			i, o0 := lo/q.Out, lo%q.Out
			n := hi - lo
			if m := q.Out - o0; m < n {
				n = m // one input element
			}
			if n < minBulk || !c.Fresh(acc, o0, n) {
				for j := 0; j < n; j++ {
					accIter(c, lo+j)
				}
				lo += n
				continue
			}
			dev.Ops(mcu.OpBranch, n)
			dev.Ops(srcKind, n) // n loads of the same input word
			x := fixed.Q15(src.Get(i))
			dev.Ops(wKind, n) // n strided read-only weight loads
			dev.Ops(mcu.OpFixedMul, n)
			if i > 0 {
				c.ReadRange(acc, o0, n)
				dev.Ops(mcu.OpFixedAdd, n)
				kern.DenseRow(vals, acc.ROWords(), l.W.ROWords(), o0, o0*q.In+i, q.In, n, int64(x))
			} else {
				kern.DenseRowFirst(vals, l.W.ROWords(), o0*q.In+i, q.In, n, int64(x))
			}
			c.WriteRange(acc, o0, vals[:n])
			lo += n
		}
	})
	finIter := func(c *task.Ctx, o int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		bq := fixed.Q15(dev.Load(l.B, o))
		a := fixed.Acc(c.Read(acc, o))
		dev.Op(mcu.OpFixedAdd)
		c.Write(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	finVals := make([]int64, b.k)
	addPass("fc-fin", layer, q.Out, finIter, func(c *task.Ctx, lo, hi int) {
		dev := c.Dev()
		n := hi - lo
		if n < minBulk || !c.Fresh(acc, lo, n) || !c.Fresh(dst, lo, n) {
			for o := lo; o < hi; o++ {
				finIter(c, o)
			}
			return
		}
		dev.Ops(mcu.OpBranch, n)
		dev.LoadRange(l.B, lo, n)
		c.ReadRange(acc, lo, n)
		dev.Ops(mcu.OpFixedAdd, n)
		kern.FinalizeVec(finVals, acc.ROWords(), l.B.ROWords(), 0, lo, n, q.Shift)
		c.WriteRange(dst, lo, finVals[:n])
	})
}

// sparsePasses emits zero-init, per-nonzero accumulate, and finalize passes
// for a sparse fully-connected layer. Each nonzero update reads and writes
// its row's partial — the WAR pattern that forces redo-logging here and
// that SONIC's sparse undo-logging replaces.
func (b *tileBuilder) sparsePasses(addPass addPassFn,
	l *core.LayerImage, layer string, src, dst *mem.Region) {
	q := l.Q
	acc := b.img.AccA
	zeroIter := func(c *task.Ctx, o int) {
		c.Dev().Op(mcu.OpBranch)
		c.Write(acc, o, 0)
	}
	zeros := make([]int64, b.k)
	addPass("spfc-zero", layer, q.Out, zeroIter, func(c *task.Ctx, lo, hi int) {
		n := hi - lo
		if n < minBulk || !c.Fresh(acc, lo, n) {
			for o := lo; o < hi; o++ {
				zeroIter(c, o)
			}
			return
		}
		c.Dev().Ops(mcu.OpBranch, n)
		c.WriteRange(acc, lo, zeros[:n])
	})
	// Row lookup per nonzero: the device walks RowPtr lazily by keeping a
	// "current row" volatile variable... but volatile state cannot span
	// tasks, so each iteration binary-searches RowPtr. This is what a real
	// port pays for splitting a CSR walk across tasks.
	accIter := func(c *task.Ctx, p int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		row := sparseRowOf(dev, l, p, q.Out)
		wv := fixed.Q15(dev.Load(l.W, p))
		col := int(dev.Load(l.Cols, p))
		x := fixed.Q15(dev.Load(src, col))
		dev.Op(mcu.OpFixedMul)
		a := fixed.Acc(c.Read(acc, row))
		dev.Op(mcu.OpFixedAdd)
		c.Write(acc, row, int64(a.MAC(wv, x)))
	}
	// The bulk body walks whole row segments — the owning row and its end
	// come from a host-side RowPtr search, free of simulated charge like
	// every other rangeFn's chunk math: one AccumulateRow per segment
	// replaces that row's read-modify-write chain through the redo log,
	// and the probe loop is charged from its host-counted step count. The
	// op multiset per iteration is identical to the scalar body's.
	rowPtr := q.RowPtr
	rowPtrKind := loadKind(l.RowPtr)
	wKind, colsKind, srcKind := loadKind(l.W), loadKind(l.Cols), loadKind(src)
	accRange := func(c *task.Ctx, lo, hi int) {
		dev := c.Dev()
		wW, colsW, srcW := l.W.ROWords(), l.Cols.ROWords(), src.ROWords()
		for lo < hi {
			row := hostRowOf(rowPtr, lo)
			n := hi - lo
			if m := int(rowPtr[row+1]) - lo; m < n {
				n = m // this row's nonzeros within the tile
			}
			if n < minBulk || !c.Fresh(acc, row, 1) {
				for j := 0; j < n; j++ {
					accIter(c, lo+j)
				}
				lo += n
				continue
			}
			s := searchSteps(q.Out, row)
			dev.Ops(mcu.OpBranch, n*(1+s))
			dev.Ops(rowPtrKind, n*s)
			dev.Ops(wKind, n)
			dev.Ops(colsKind, n)
			dev.Ops(srcKind, n)
			dev.Ops(mcu.OpFixedMul, n)
			dev.Ops(mcu.OpFixedAdd, n)
			a := acc.Get(row) + kern.CSRRowSum(wW, colsW, srcW, lo, n)
			// Cannot fail: the Fresh probe above is AccumulateRow's own
			// precondition and nothing privatizes the word in between.
			c.AccumulateRow(acc, row, n, a)
			lo += n
		}
	}
	addPass("spfc-acc", layer, len(q.W), accIter, accRange)
	finIter := func(c *task.Ctx, o int) {
		dev := c.Dev()
		dev.Op(mcu.OpBranch)
		bq := fixed.Q15(dev.Load(l.B, o))
		a := fixed.Acc(c.Read(acc, o))
		dev.Op(mcu.OpFixedAdd)
		c.Write(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	finVals := make([]int64, b.k)
	addPass("spfc-fin", layer, q.Out, finIter, func(c *task.Ctx, lo, hi int) {
		dev := c.Dev()
		n := hi - lo
		if n < minBulk || !c.Fresh(acc, lo, n) || !c.Fresh(dst, lo, n) {
			for o := lo; o < hi; o++ {
				finIter(c, o)
			}
			return
		}
		dev.Ops(mcu.OpBranch, n)
		dev.LoadRange(l.B, lo, n)
		c.ReadRange(acc, lo, n)
		dev.Ops(mcu.OpFixedAdd, n)
		kern.FinalizeVec(finVals, acc.ROWords(), l.B.ROWords(), 0, lo, n, q.Shift)
		c.WriteRange(dst, lo, finVals[:n])
	})
}

// hostRowOf returns the row owning nonzero p — sparseRowOf's answer,
// derived host-side from the quantized RowPtr without simulated loads.
func hostRowOf(rowPtr []int32, p int) int {
	lo, hi := 0, len(rowPtr)-1
	for lo+1 < hi {
		if mid := (lo + hi) / 2; int(rowPtr[mid]) <= p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// searchSteps returns the number of probe iterations sparseRowOf performs
// for any nonzero in the given row: each probe compares a row boundary
// RowPtr[mid] against a key strictly inside the row, so the comparison —
// and with it the whole probe path — is the same for every key the row
// owns, and can be counted host-side without loading RowPtr.
func searchSteps(rows, row int) int {
	lo, hi, s := 0, rows, 0
	for lo+1 < hi {
		s++
		if mid := (lo + hi) / 2; mid <= row {
			lo = mid
		} else {
			hi = mid
		}
	}
	return s
}

// sparseRowOf binary-searches RowPtr for the row containing nonzero p.
func sparseRowOf(dev *mcu.Device, l *core.LayerImage, p, rows int) int {
	lo, hi := 0, rows // invariant: RowPtr[lo] <= p < RowPtr[hi]
	for lo+1 < hi {
		dev.Op(mcu.OpBranch)
		mid := (lo + hi) / 2
		if dev.Load(l.RowPtr, mid) <= int64(p) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// poolPass emits the pooling pass: one output element per iteration, with
// the window-origin decode read from the compiled PoolBase table.
func (b *tileBuilder) poolPass(addPass addPassFn,
	q *dnn.QuantLayer, tl *tape.Layer, src, dst *mem.Region) {
	w := q.InShape[2]
	poolBase := tl.PoolBase
	addPass("pool", tl.Name, len(poolBase), func(c *task.Ctx, i int) {
		dev := c.Dev()
		best := fixed.MinusOne
		for ky := 0; ky < q.Window; ky++ {
			rowStart := int(poolBase[i]) + ky*w
			for kx := 0; kx < q.Window; kx++ {
				dev.Op(mcu.OpBranch)
				v := fixed.Q15(dev.Load(src, rowStart+kx))
				best = fixed.Max(best, v)
			}
		}
		c.Write(dst, i, int64(best))
	}, nil)
}
