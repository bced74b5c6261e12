package baseline

import (
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/task"
)

// Fused whole-task execution. When the device can fuse (no journal,
// tracer or WAR shadow; devirtualized power) and no observer watches
// FRAM, the task runtime funds a train of whole tasks in one
// mcu.ChargeTrain call from the plan's profiles, and tileRun applies the
// funded tasks' effects directly: the pass kernels on the home words, the
// pass cursor, and the redo log as each run's last task left it. The
// first unfunded task runs its scalar body, which browns out at the op
// the scalar path would, so logits, Stats, reboot placement and wasted
// work are bit-exact with the NoFuse path (TestFusedScalarDifferential).

// fused is tileRun's fused-path state.
type fused struct {
	// blocks holds each profile's block (dispatch ops first) at 2i and
	// its headless form (without them) at 2i+1.
	blocks []mcu.Block
	// segs[r+1] is run r's train segment; segs[0] is spare room for
	// Train's headless first task.
	segs []mcu.TrainSeg

	// The train Train last returned: it starts at task atOff of run at,
	// and edited names the segment index whose pair it overwrote.
	at, atOff int32
	edited    int
	saved     [2]mcu.TrainSeg
}

// prepareFused builds the plan's blocks and the inference-long train:
// one op arena, one block table, one segment table.
func (x *tileRun) prepareFused() {
	pl := x.plan
	var dispatch [mcu.NumOps]int
	task.ChargeDispatch(&dispatch)
	nOps := 0
	for i := range pl.profiles {
		pr := &pl.profiles[i]
		nOps += kinds(&dispatch) + kinds(&pr.control) + max(1, kinds(&pr.kernel)) + kinds(&pr.commit)
	}
	arena := make([]mcu.BlockOp, 0, nOps)
	x.blocks = make([]mcu.Block, 2*len(pl.profiles))
	dev := x.img.Dev
	for i := range pl.profiles {
		pr := &pl.profiles[i]
		tk := &x.toks[pr.layer]
		start := len(arena)
		arena = appendOps(arena, x.toks[pr.prevLayer].transition, &dispatch)
		body := len(arena)
		arena = appendOps(arena, tk.control, &pr.control)
		if kinds(&pr.kernel) == 0 {
			// An empty pass's task still enters its kernel section.
			arena = append(arena, mcu.BlockOp{Tok: tk.kernel, Kind: mcu.OpBranch})
		}
		arena = appendOps(arena, tk.kernel, &pr.kernel)
		arena = appendOps(arena, tk.transition, &pr.commit)
		x.blocks[2*i] = dev.MakeBlock(arena[start:len(arena):len(arena)]...)
		x.blocks[2*i+1] = dev.MakeBlock(arena[body:len(arena):len(arena)]...)
	}
	x.segs = make([]mcu.TrainSeg, len(pl.runs)+1)
	for r := range pl.runs {
		x.segs[r+1] = mcu.TrainSeg{Blk: &x.blocks[2*pl.runs[r].prof], N: int(pl.runs[r].tasks)}
	}
}

// kinds counts the op kinds a profile phase charges.
func kinds(ops *[mcu.NumOps]int) int {
	n := 0
	for _, c := range ops {
		if c > 0 {
			n++
		}
	}
	return n
}

// appendOps appends one block op per op kind charged in ops, attributed
// to tok.
func appendOps(dst []mcu.BlockOp, tok mcu.SectionTok, ops *[mcu.NumOps]int) []mcu.BlockOp {
	for k, n := range ops {
		if n > 0 {
			dst = append(dst, mcu.BlockOp{Tok: tok, Kind: mcu.OpKind(k), N: n})
		}
	}
	return dst
}

// Train implements task.Fuser: the rest of the inference from task cur,
// whose cursor is the pass cursor's home word, with cur in its headless
// form.
func (x *tileRun) Train(cur task.ID) []mcu.TrainSeg {
	if s := x.edited; s > 0 {
		x.segs[s-1], x.segs[s] = x.saved[0], x.saved[1]
	}
	pl := x.plan
	t := int32(int(x.img.Ctl.Get(tileCursorSlot)) / pl.k)
	r := pl.runAt(int(cur), t)
	run := &pl.runs[r]
	x.at, x.atOff = int32(r), t-run.first
	s := r + 1
	x.edited, x.saved = s, [2]mcu.TrainSeg{x.segs[s-1], x.segs[s]}
	x.segs[s-1] = mcu.TrainSeg{Blk: &x.blocks[2*run.prof+1], N: 1}
	x.segs[s] = mcu.TrainSeg{Blk: &x.blocks[2*run.prof], N: int(run.tasks - x.atOff - 1)}
	return x.segs[s-1:]
}

// Apply implements task.Fuser: it runs the funded tasks' iterations run
// by run as kernels over the home words, and leaves the pass cursor and
// the redo log as each run's last task commits them. A run's tasks share
// a profile, so they append the same number of log entries, and its last
// task overwrites every entry the earlier ones left.
func (x *tileRun) Apply(m int) task.ID {
	pl := x.plan
	k := pl.k
	var next task.ID
	for r, off := int(x.at), x.atOff; m > 0; r, off = r+1, 0 {
		run := &pl.runs[r]
		c := min(int32(m), run.tasks-off)
		m -= int(c)
		p := &pl.passes[run.pass]
		t0, t1 := int(run.first+off), int(run.first+off+c)
		lo, hi := t0*k, min(t1*k, p.n)
		x.apply(p, lo, hi)
		cursor := int64(hi)
		next = task.ID(run.pass)
		if hi >= p.n {
			cursor, next = 0, pl.next(int(run.pass))
		}
		x.img.Ctl.Put(tileCursorSlot, cursor)
		x.logTask(p, (t1-1)*k, hi)
	}
	return next
}

// logTask rewrites the redo log as the commit of the task running pass
// p's iterations [lo, hi) leaves it: the written words in first-write
// order, chunked as apply walks them, then the cursor.
func (x *tileRun) logTask(p *tilePass, lo, hi int) {
	rt, acc := x.rt, x.img.AccA
	tl := &x.prog.Layers[p.layer]
	q := &x.prog.Model.Layers[p.layer]
	rt.ResetFusedLog()
	switch p.kind {
	case passConvAcc:
		for it := lo; it < hi; {
			e, i := it/tl.Positions, it%tl.Positions
			m := min(tl.Positions-i, hi-it)
			widx := e
			if len(q.NZ) > 0 {
				widx = int(q.NZ[e])
			}
			rt.LogFused(acc, int(tl.WAccBase[widx])+i, m)
			it += m
		}
	case passFCAcc:
		for it := lo; it < hi; {
			o := it % q.Out
			m := min(q.Out-o, hi-it)
			rt.LogFused(acc, o, m)
			it += m
		}
	case passSpAcc:
		if hi > lo {
			for si := int(tl.SpanOf[lo]); si < len(tl.SpStart) && int(tl.SpStart[si]) < hi; si++ {
				rt.LogFused(acc, int(tl.SpRow[si]), 1)
			}
		}
	default:
		home := acc
		if !p.writesAcc() {
			_, home = actBufs(x.img, p.parity)
		}
		rt.LogFused(home, lo, hi-lo)
	}
	rt.LogFused(x.img.Ctl, tileCursorSlot, 1)
}

// apply computes pass p's iterations [lo, hi) in place on the home
// words. Read-own-write through the redo log makes each task's result
// the sequential one, which in-place kernels compute directly.
func (x *tileRun) apply(p *tilePass, lo, hi int) {
	if hi <= lo {
		return
	}
	l := &x.img.Layers[p.layer]
	tl := &x.prog.Layers[p.layer]
	q := l.Q
	src, dst := actBufs(x.img, p.parity)
	switch p.kind {
	case passConvZero, passSpZero:
		kern.Zero(x.img.AccA.Words(), lo, hi-lo)
	case passConvAcc:
		acc, srcW, wW := x.img.AccA.Words(), src.ROWords(), l.W.ROWords()
		for it := lo; it < hi; {
			e, i := it/tl.Positions, it%tl.Positions
			m := min(tl.Positions-i, hi-it)
			widx := e
			if l.NZ != nil {
				widx = int(q.NZ[e])
			}
			base, srcBase := int(tl.WAccBase[widx]), int(tl.WSrc[widx])
			if l.NZ == nil && tl.First[e] {
				kern.ConvFirst(acc, srcW, base, srcBase, tl.PosOff, i, m, wW[widx])
			} else {
				kern.ConvMAC(acc, acc, srcW, base, srcBase, tl.PosOff, i, m, wW[widx])
			}
			it += m
		}
	case passConvFin:
		dstW, acc, b := dst.Words(), x.img.AccA.ROWords(), l.B.ROWords()
		for it := lo; it < hi; {
			f := it / tl.Positions
			m := min((f+1)*tl.Positions-it, hi-it)
			kern.FinalizeConst(dstW, acc, b[f], it, it, m, q.Shift)
			it += m
		}
	case passFCAcc:
		acc, srcW, wW := x.img.AccA.Words(), src.ROWords(), l.W.ROWords()
		for it := lo; it < hi; {
			i, o := it/q.Out, it%q.Out
			m := min(q.Out-o, hi-it)
			if i > 0 {
				kern.DenseMAC(acc, acc, wW, q.In, i, o, m, srcW[i])
			} else {
				kern.DenseFirst(acc, wW, q.In, i, o, m, srcW[i])
			}
			it += m
		}
	case passFCFin, passSpFin:
		kern.FinalizeVec(dst.Words(), x.img.AccA.ROWords(), l.B.ROWords(), lo, lo, hi-lo, q.Shift)
	case passSpAcc:
		kern.CSRSpans(l.W.ROWords(), l.Cols.ROWords(), src.ROWords(), x.img.AccA.Words(),
			tl.SpStart, tl.SpLen, tl.SpRow, int(tl.SpanOf[lo]), lo, hi-lo)
	case passReLU:
		kern.ReLU(dst.Words(), src.ROWords(), lo, lo, hi-lo)
	case passPool:
		kern.MaxPool(dst.Words(), src.ROWords(), tl.PoolBase, q.Window, q.InShape[2], lo, hi-lo)
	}
}
