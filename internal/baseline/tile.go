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
}

// DefaultLogEntries is the redo-log capacity: a tile of per-MAC
// iterations writes at most TileSize distinct partials plus the loop
// cursor.
const DefaultLogEntries = 512

// MaxTileSize is the largest tile whose tasks the redo log can hold.
const MaxTileSize = DefaultLogEntries - 1

// Name identifies the runtime, e.g. "tile-32".
func (t Tile) Name() string { return fmt.Sprintf("tile-%d", t.TileSize) }

// ctl-slot index within the image control block used for the pass cursor.
const tileCursorSlot = 0

// minBulk is the chunk size below which a pass body falls back to its
// per-iteration form: tiny chunks don't amortize the Range machinery.
const minBulk = 4

// loadKind returns the load op kind for a region's memory (the tile
// bodies charge repeated or strided loads of read-only data in bulk).
func loadKind(r *mem.Region) mcu.OpKind {
	if r.Kind() == mem.FRAM {
		return mcu.OpLoadFRAM
	}
	return mcu.OpLoadSRAM
}

// storeKind returns the store op kind for a region's memory.
func storeKind(r *mem.Region) mcu.OpKind {
	if r.Kind() == mem.FRAM {
		return mcu.OpStoreFRAM
	}
	return mcu.OpStoreSRAM
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
	if t.TileSize <= 0 || t.TileSize > MaxTileSize {
		return nil, fmt.Errorf("baseline: invalid tile size %d: a %d-entry redo log holds tiles of 1 to %d iterations",
			t.TileSize, DefaultLogEntries, MaxTileSize)
	}
	rt, err := task.New(img.Dev, DefaultLogEntries)
	if err != nil {
		return nil, fmt.Errorf("baseline: allocating task runtime: %w", err)
	}
	defer rt.Release()

	for _, r := range []*mem.Region{img.ActA, img.ActB, img.AccA, img.AccB, img.Ctl} {
		if r != nil {
			rt.Share(r)
		}
	}

	x := newTileRun(img, rt, planFor(img, t.TileSize))
	if img.Dev.Tracer() != nil {
		img.Dev.Emit(mcu.TraceRunBegin, t.Name(), int64(t.TileSize))
	}
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
	return img.ReadOutput(x.prog.FinalParity), nil
}

// layerToks are one layer's pre-resolved attribution sections.
type layerToks struct {
	control, kernel, transition mcu.SectionTok
}

// tileRun is one inference's executor over a plan: the pass bodies, run
// as the tasks of a task.Runtime, and the fused whole-task path
// (tilefuse.go). Only loop cursors live in task-shared memory.
type tileRun struct {
	img  *core.Image
	rt   *task.Runtime
	plan *tilePlan
	prog *tape.Program
	vals []int64     // chunk scratch: a task's iterations, at most
	toks []layerToks // by layer; only the passes' layers are resolved

	fused
}

// newTileRun registers one task per pass with rt, all served by the same
// body, and sets up the fused path when the device can take it.
func newTileRun(img *core.Image, rt *task.Runtime, pl *tilePlan) *tileRun {
	dev := img.Dev
	x := &tileRun{img: img, rt: rt, plan: pl, prog: pl.prog,
		vals: make([]int64, pl.maxTask), toks: make([]layerToks, len(img.Layers))}
	fuse := dev.CanFuse() && !dev.FRAM.Observed()
	body := x.runTask
	for pi := range pl.passes {
		p := &pl.passes[pi]
		if pi == 0 || p.layer != pl.passes[pi-1].layer {
			name := x.prog.Layers[p.layer].Name
			tk := &x.toks[p.layer]
			tk.control = dev.SectionToken(name, mcu.PhaseControl)
			tk.kernel = dev.SectionToken(name, mcu.PhaseKernel)
			if fuse {
				tk.transition = dev.SectionToken(name, mcu.PhaseTransition)
			}
		}
		rt.Add(passNames[p.kind], body)
	}
	if fuse {
		x.prepareFused()
		rt.SetFuser(x)
	}
	return x
}

// next returns the task after pass pi's last.
func (pl *tilePlan) next(pi int) task.ID {
	if pi+1 < len(pl.passes) {
		return task.ID(pi + 1)
	}
	return task.Done
}

// runTask is every pass's task body: read the pass cursor, run the next
// (at most) k iterations, and write the cursor back — reset to 0 when the
// pass is done, for the next pass.
func (x *tileRun) runTask(c *task.Ctx) task.ID {
	id := c.Task()
	p := &x.plan.passes[id]
	dev := c.Dev()
	tk := &x.toks[p.layer]
	dev.SetSectionTok(tk.control)
	base := int(c.Read(x.img.Ctl, tileCursorSlot))
	dev.SetSectionTok(tk.kernel)
	end := min(base+x.plan.k, p.n)
	x.body(c, p, base, end)
	dev.SetSectionTok(tk.control)
	if end < p.n {
		c.Write(x.img.Ctl, tileCursorSlot, int64(end))
		return id
	}
	c.Write(x.img.Ctl, tileCursorSlot, 0)
	return x.plan.next(int(id))
}

// body executes iterations [lo, hi) of pass p. The bodies bulk-charge
// uniform chunks through the device's Range macro-ops and the task
// runtime's ReadRange/WriteRange, falling back to the per-iteration form
// where bulking is illegal (privatized words, scattered accesses); the
// charged op multiset per iteration is the same either way.
func (x *tileRun) body(c *task.Ctx, p *tilePass, lo, hi int) {
	l := &x.img.Layers[p.layer]
	tl := &x.prog.Layers[p.layer]
	src, dst := actBufs(x.img, p.parity)
	switch p.kind {
	case passConvZero, passSpZero:
		x.zeroRange(c, lo, hi)
	case passConvAcc:
		x.convAccRange(c, l, tl, src, lo, hi)
	case passConvFin:
		x.convFinRange(c, l, tl, dst, lo, hi)
	case passFCAcc:
		x.denseAccRange(c, l, src, lo, hi)
	case passFCFin, passSpFin:
		x.finVecRange(c, l, dst, lo, hi)
	case passSpAcc:
		x.sparseAccRange(c, l, tl, src, lo, hi)
	case passReLU:
		x.reluRange(c, src, dst, lo, hi)
	case passPool:
		for i := lo; i < hi; i++ {
			x.poolIter(c, l.Q, tl, src, dst, i)
		}
	}
}

// reluRange rectifies activations [lo, hi).
func (x *tileRun) reluRange(c *task.Ctx, src, dst *mem.Region, lo, hi int) {
	n := hi - lo
	dev := c.Dev()
	if n < minBulk || !c.Fresh(src, lo, n) || !c.Fresh(dst, lo, n) {
		for i := lo; i < hi; i++ {
			dev.Op(mcu.OpBranch)
			v := fixed.ReLU(fixed.Q15(c.Read(src, i)))
			c.Write(dst, i, int64(v))
		}
		return
	}
	dev.Ops(mcu.OpBranch, n)
	c.ReadRange(src, lo, n)
	kern.ReLU(x.vals, src.ROWords(), 0, lo, n)
	c.WriteRange(dst, lo, x.vals[:n])
}

// zeroRange zeroes partials [lo, hi): the zero-init pass of a pruned
// conv or a sparse dense layer.
func (x *tileRun) zeroRange(c *task.Ctx, lo, hi int) {
	acc := x.img.AccA
	n := hi - lo
	if n < minBulk || !c.Fresh(acc, lo, n) {
		for i := lo; i < hi; i++ {
			c.Dev().Op(mcu.OpBranch)
			c.Write(acc, i, 0)
		}
		return
	}
	c.Dev().Ops(mcu.OpBranch, n)
	zeros := x.vals[:n]
	clear(zeros)
	c.WriteRange(acc, lo, zeros)
}

// convMAC performs conv-acc iteration it: one MAC of a filter element at
// one output position — "a[i] += b[i] × c" exactly as in the paper's
// Fig. 6 — on the task-shared partial, so every iteration pays
// privatization. The compiled decode tables give the filter element's
// source and accumulator offsets and the position's input offset.
func (x *tileRun) convMAC(c *task.Ctx, l *core.LayerImage, tl *tape.Layer, src *mem.Region, it int) {
	dev := c.Dev()
	dev.Op(mcu.OpBranch)
	e, i := it/tl.Positions, it%tl.Positions
	widx := e
	if l.NZ != nil {
		widx = int(dev.Load(l.NZ, e))
	}
	first := l.NZ == nil && tl.First[widx] // dense layout: widx == walked element
	wv := fixed.Q15(dev.Load(l.W, widx))
	xv := fixed.Q15(dev.Load(src, int(tl.WSrc[widx])+int(tl.PosOff[i])))
	dev.Op(mcu.OpFixedMul)
	acc := x.img.AccA
	pos := int(tl.WAccBase[widx]) + i
	var a fixed.Acc
	if !first {
		a = fixed.Acc(c.Read(acc, pos))
		dev.Op(mcu.OpFixedAdd)
	}
	c.Write(acc, pos, int64(a.MAC(wv, xv)))
}

// convAccRange runs conv-acc iterations [lo, hi). Dense filters bulk in
// chunks of one filter element and one output row, so every charged
// range is uniform in op kinds and contiguous in memory.
func (x *tileRun) convAccRange(c *task.Ctx, l *core.LayerImage, tl *tape.Layer, src *mem.Region, lo, hi int) {
	if l.NZ != nil {
		for it := lo; it < hi; it++ {
			x.convMAC(c, l, tl, src, it)
		}
		return
	}
	dev := c.Dev()
	acc := x.img.AccA
	positions, ow := tl.Positions, l.Q.OutShape[2]
	wKind := loadKind(l.W)
	for lo < hi {
		e, i0 := lo/positions, lo%positions
		n := hi - lo
		if m := positions - i0; m < n {
			n = m // one filter element
		}
		if m := ow - i0%ow; m < n {
			n = m // one output row: contiguous source loads
		}
		first := tl.First[e]
		pos0 := int(tl.WAccBase[e]) + i0
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
				x.convMAC(c, l, tl, src, lo+j)
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
		srcStart := int(tl.WSrc[e]) + int(tl.PosOff[i0])
		dev.LoadRange(src, srcStart, n)
		dev.Ops(mcu.OpFixedMul, n)
		vals := x.vals[:n]
		if !first {
			dev.Ops(mcu.OpFixedAdd, n)
			kern.MACRow(vals, acc.ROWords(), src.ROWords(), pos0, srcStart, n, int64(wv))
		} else {
			kern.MulRow(vals, src.ROWords(), srcStart, n, int64(wv))
		}
		c.WriteRange(acc, pos0, vals)
		lo += n
	}
}

// finIter is a finalize iteration: bias and rescale partial i into
// output i, with bias word b.
func finIter(c *task.Ctx, l *core.LayerImage, acc, dst *mem.Region, i, b int) {
	dev := c.Dev()
	dev.Op(mcu.OpBranch)
	bq := fixed.Q15(dev.Load(l.B, b))
	a := fixed.Acc(c.Read(acc, i))
	dev.Op(mcu.OpFixedAdd)
	c.Write(dst, i, int64(a.AddQ(bq).SatShiftSigned(l.Q.Shift)))
}

// convFinRange runs conv-fin iterations [lo, hi), bulk in chunks of one
// filter (a single bias word).
func (x *tileRun) convFinRange(c *task.Ctx, l *core.LayerImage, tl *tape.Layer, dst *mem.Region, lo, hi int) {
	dev := c.Dev()
	acc := x.img.AccA
	positions := tl.Positions
	bKind := loadKind(l.B)
	for lo < hi {
		f := lo / positions
		n := hi - lo
		if m := positions - lo%positions; m < n {
			n = m // one filter: a single bias word
		}
		if n < minBulk || !c.Fresh(acc, lo, n) || !c.Fresh(dst, lo, n) {
			for j := 0; j < n; j++ {
				finIter(c, l, acc, dst, lo+j, f)
			}
			lo += n
			continue
		}
		dev.Ops(mcu.OpBranch, n)
		dev.Ops(bKind, n) // n loads of the same read-only bias word
		bq := fixed.Q15(l.B.Get(f))
		c.ReadRange(acc, lo, n)
		dev.Ops(mcu.OpFixedAdd, n)
		kern.FinalizeConst(x.vals, acc.ROWords(), int64(bq), 0, lo, n, l.Q.Shift)
		c.WriteRange(dst, lo, x.vals[:n])
		lo += n
	}
}

// denseMAC performs fc-acc iteration it: one MAC on the task-shared
// partial of output o by input element i.
func (x *tileRun) denseMAC(c *task.Ctx, l *core.LayerImage, src *mem.Region, it int) {
	q := l.Q
	dev := c.Dev()
	dev.Op(mcu.OpBranch)
	i, o := it/q.Out, it%q.Out
	xv := fixed.Q15(dev.Load(src, i))
	wv := fixed.Q15(dev.Load(l.W, o*q.In+i))
	dev.Op(mcu.OpFixedMul)
	acc := x.img.AccA
	var a fixed.Acc
	if i > 0 {
		a = fixed.Acc(c.Read(acc, o))
		dev.Op(mcu.OpFixedAdd)
	}
	c.Write(acc, o, int64(a.MAC(wv, xv)))
}

// denseAccRange runs fc-acc iterations [lo, hi), bulk in chunks of one
// input element.
func (x *tileRun) denseAccRange(c *task.Ctx, l *core.LayerImage, src *mem.Region, lo, hi int) {
	q := l.Q
	dev := c.Dev()
	acc := x.img.AccA
	wKind, srcKind := loadKind(l.W), loadKind(src)
	for lo < hi {
		i, o0 := lo/q.Out, lo%q.Out
		n := hi - lo
		if m := q.Out - o0; m < n {
			n = m // one input element
		}
		if n < minBulk || !c.Fresh(acc, o0, n) {
			for j := 0; j < n; j++ {
				x.denseMAC(c, l, src, lo+j)
			}
			lo += n
			continue
		}
		dev.Ops(mcu.OpBranch, n)
		dev.Ops(srcKind, n) // n loads of the same input word
		xv := fixed.Q15(src.Get(i))
		dev.Ops(wKind, n) // n strided read-only weight loads
		dev.Ops(mcu.OpFixedMul, n)
		vals := x.vals[:n]
		if i > 0 {
			c.ReadRange(acc, o0, n)
			dev.Ops(mcu.OpFixedAdd, n)
			kern.DenseRow(vals, acc.ROWords(), l.W.ROWords(), o0, o0*q.In+i, q.In, n, int64(xv))
		} else {
			kern.DenseRowFirst(vals, l.W.ROWords(), o0*q.In+i, q.In, n, int64(xv))
		}
		c.WriteRange(acc, o0, vals)
		lo += n
	}
}

// finVecRange runs the dense and sparse finalize iterations [lo, hi):
// one bias word per output.
func (x *tileRun) finVecRange(c *task.Ctx, l *core.LayerImage, dst *mem.Region, lo, hi int) {
	dev := c.Dev()
	acc := x.img.AccA
	n := hi - lo
	if n < minBulk || !c.Fresh(acc, lo, n) || !c.Fresh(dst, lo, n) {
		for o := lo; o < hi; o++ {
			finIter(c, l, acc, dst, o, o)
		}
		return
	}
	dev.Ops(mcu.OpBranch, n)
	dev.LoadRange(l.B, lo, n)
	c.ReadRange(acc, lo, n)
	dev.Ops(mcu.OpFixedAdd, n)
	kern.FinalizeVec(x.vals, acc.ROWords(), l.B.ROWords(), 0, lo, n, l.Q.Shift)
	c.WriteRange(dst, lo, x.vals[:n])
}

// sparseMAC performs spfc-acc iteration p: one nonzero's update of its
// row's partial — the WAR pattern that forces redo-logging here and that
// SONIC's sparse undo-logging replaces. Volatile state cannot span tasks,
// so the row is found by a binary search of RowPtr per nonzero: what a
// real port pays for splitting a CSR walk across tasks.
func (x *tileRun) sparseMAC(c *task.Ctx, l *core.LayerImage, src *mem.Region, p int) {
	dev := c.Dev()
	dev.Op(mcu.OpBranch)
	row := sparseRowOf(dev, l, p, l.Q.Out)
	wv := fixed.Q15(dev.Load(l.W, p))
	col := int(dev.Load(l.Cols, p))
	xv := fixed.Q15(dev.Load(src, col))
	dev.Op(mcu.OpFixedMul)
	acc := x.img.AccA
	a := fixed.Acc(c.Read(acc, row))
	dev.Op(mcu.OpFixedAdd)
	c.Write(acc, row, int64(a.MAC(wv, xv)))
}

// sparseAccRange runs spfc-acc iterations [lo, hi) by whole row
// segments — the owning row and its end come from a host-side RowPtr
// search, free of simulated charge like every other chunk decision: one
// AccumulateRow per segment replaces that row's read-modify-write chain
// through the redo log, and the probe loop is charged from its
// host-counted step count. The op multiset per iteration is the
// per-iteration form's.
func (x *tileRun) sparseAccRange(c *task.Ctx, l *core.LayerImage, tl *tape.Layer, src *mem.Region, lo, hi int) {
	q := l.Q
	dev := c.Dev()
	acc := x.img.AccA
	rowPtr := q.RowPtr
	rowPtrKind := loadKind(l.RowPtr)
	wKind, colsKind, srcKind := loadKind(l.W), loadKind(l.Cols), loadKind(src)
	wW, colsW, srcW := l.W.ROWords(), l.Cols.ROWords(), src.ROWords()
	for lo < hi {
		row := hostRowOf(rowPtr, lo)
		n := hi - lo
		if m := int(rowPtr[row+1]) - lo; m < n {
			n = m // this row's nonzeros within the tile
		}
		if n < minBulk || !c.Fresh(acc, row, 1) {
			for j := 0; j < n; j++ {
				x.sparseMAC(c, l, src, lo+j)
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

// poolIter produces pooling output i, with the window-origin decode read
// from the compiled PoolBase table.
func (x *tileRun) poolIter(c *task.Ctx, q *dnn.QuantLayer, tl *tape.Layer, src, dst *mem.Region, i int) {
	dev := c.Dev()
	w := q.InShape[2]
	best := fixed.MinusOne
	for ky := 0; ky < q.Window; ky++ {
		rowStart := int(tl.PoolBase[i]) + ky*w
		for kx := 0; kx < q.Window; kx++ {
			dev.Op(mcu.OpBranch)
			v := fixed.Q15(dev.Load(src, rowStart+kx))
			best = fixed.Max(best, v)
		}
	}
	c.Write(dst, i, int64(best))
}
