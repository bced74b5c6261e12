package baseline

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
	"repro/internal/task"
)

// A tile pass plan is the task graph of Tile-k over one model, compiled
// once per (model, k) and cached on the model's tape.Program, so
// tape.Forget evicts it with the program. It is plain data: the passes in
// execution order, and for every task its whole charge profile, grouped
// into runs of consecutive tasks with identical profiles. A profile
// depends only on the model's geometry — first filter elements, words a
// task re-privatizes when a pass's period is shorter than k (conv
// positions, dense outputs), CSR row boundaries — never on data values,
// which is what lets the fused path fund whole tasks without running
// their bodies (tilefuse.go).

// passKind names a pass body.
type passKind uint8

const (
	passConvZero passKind = iota // pruned conv: zero the partials
	passConvAcc                  // conv: one filter element at one output position
	passConvFin                  // conv: bias and rescale one output
	passFCAcc                    // dense: one input element into one output partial
	passFCFin                    // dense: bias and rescale one output
	passSpZero                   // sparse dense: zero the row partials
	passSpAcc                    // sparse dense: one nonzero into its row partial
	passSpFin                    // sparse dense: bias and rescale one row
	passReLU                     // one activation
	passPool                     // one pooling window
)

// passNames are the task names, one per pass kind.
var passNames = [...]string{
	passConvZero: "conv-zero",
	passConvAcc:  "conv-acc",
	passConvFin:  "conv-fin",
	passFCAcc:    "fc-acc",
	passFCFin:    "fc-fin",
	passSpZero:   "spfc-zero",
	passSpAcc:    "spfc-acc",
	passSpFin:    "spfc-fin",
	passReLU:     "relu",
	passPool:     "pool",
}

// tilePass is one pass: a self-transitioning task over n iterations of
// layer's body, k iterations per task.
type tilePass struct {
	kind   passKind
	parity bool // activation parity at the layer: src, dst = actBufs(img, parity)
	layer  int32
	n      int   // iterations
	run0   int32 // the pass's first run in tilePlan.runs
}

// taskRun is a stretch of consecutive tasks of one pass sharing a
// profile.
type taskRun struct {
	pass  int32
	first int32 // the run's first task, counted within its pass
	tasks int32
	prof  int32 // index into tilePlan.profiles
}

// taskProfile is one task's whole charge, by the section it lands in:
// the dispatch loop's ops (task.ChargeDispatch) in the previous task's
// transition section, the cursor's read and write in the layer's control
// section, the body in its kernel section and the commit in its
// transition section.
type taskProfile struct {
	layer, prevLayer int32
	control          [mcu.NumOps]int
	kernel           [mcu.NumOps]int
	commit           [mcu.NumOps]int
}

// tilePlan is Tile-k's compiled task graph over one model.
type tilePlan struct {
	k        int
	maxTask  int // the most iterations any task runs: min(k, longest pass)
	prog     *tape.Program
	passes   []tilePass
	runs     []taskRun
	profiles []taskProfile
}

// tilePlanKey keys a plan in its program's memo.
type tilePlanKey int

// planFor returns the Tile-k plan of img's model, compiling it on first
// use. Deployment places every region of a model the same way, so the
// op kinds read off img hold for every image of the model.
func planFor(img *core.Image, k int) *tilePlan {
	prog := tape.Get(img.Model)
	return prog.Memo(tilePlanKey(k), func() any { return compilePlan(img, prog, k) }).(*tilePlan)
}

// compilePlan lowers the model into its passes, then walks every task to
// record its profile.
func compilePlan(img *core.Image, prog *tape.Program, k int) *tilePlan {
	pl := &tilePlan{k: k, prog: prog}
	parity := false
	for li := range img.Layers {
		q := img.Layers[li].Q
		tl := &prog.Layers[li]
		add := func(kind passKind, n int) {
			pl.passes = append(pl.passes, tilePass{kind: kind, parity: parity, layer: int32(li), n: n})
		}
		switch q.Kind {
		case dnn.QConv:
			if len(q.NZ) > 0 {
				add(passConvZero, q.F*tl.Positions)
			}
			add(passConvAcc, tl.Elems*tl.Positions)
			add(passConvFin, q.F*tl.Positions)
		case dnn.QDense:
			add(passFCAcc, q.In*q.Out)
			add(passFCFin, q.Out)
		case dnn.QSparseDense:
			add(passSpZero, q.Out)
			add(passSpAcc, len(q.W))
			add(passSpFin, q.Out)
		case dnn.QReLU:
			add(passReLU, q.InShape.Len())
		case dnn.QPool:
			add(passPool, len(tl.PoolBase))
		}
		if tl.Flips {
			parity = !parity
		}
	}

	for _, p := range pl.passes {
		pl.maxTask = max(pl.maxTask, min(k, p.n))
	}
	ids := make(map[taskProfile]int32)
	prevLayer := int32(-1)
	for pi := range pl.passes {
		p := &pl.passes[pi]
		p.run0 = int32(len(pl.runs))
		if prevLayer < 0 {
			prevLayer = p.layer // the entry task never charges a dispatch in a block
		}
		c := pl.newCharger(img, p)
		for t := 0; t < p.tasks(k); t++ {
			pr := c.profile(t, prevLayer)
			prevLayer = p.layer
			id, ok := ids[pr]
			if !ok {
				id = int32(len(pl.profiles))
				ids[pr] = id
				pl.profiles = append(pl.profiles, pr)
			}
			if last := len(pl.runs) - 1; last >= int(p.run0) && pl.runs[last].prof == id {
				pl.runs[last].tasks++
				continue
			}
			pl.runs = append(pl.runs, taskRun{pass: int32(pi), first: int32(t), tasks: 1, prof: id})
		}
	}
	return pl
}

// tasks returns the pass's task count: one per k iterations, and one
// for an empty pass, whose task only moves the cursor on.
func (p *tilePass) tasks(k int) int {
	return max(1, (p.n+k-1)/k)
}

// writesAcc reports whether the pass writes the partials (AccA) rather
// than the destination activations.
func (p *tilePass) writesAcc() bool {
	switch p.kind {
	case passConvZero, passConvAcc, passFCAcc, passSpZero, passSpAcc:
		return true
	}
	return false
}

// charger counts one pass's task profiles, mirroring the scalar bodies
// in tile.go op for op.
type charger struct {
	pl *tilePlan
	p  *tilePass
	q  *dnn.QuantLayer
	tl *tape.Layer

	srcLoad, wLoad, bLoad, nzLoad, rowPtrLoad, colsLoad, accLoad, ctlLoad mcu.OpKind
	homeStore, ctlStore                                                   mcu.OpKind

	// marks[w] holds 1 + the task that last wrote word w of the written
	// region: the compile-time form of the runtime's write set.
	marks []int32
}

func (pl *tilePlan) newCharger(img *core.Image, p *tilePass) *charger {
	l := &img.Layers[p.layer]
	src, home := actBufs(img, p.parity)
	if p.writesAcc() {
		home = img.AccA
	}
	return &charger{pl: pl, p: p, q: l.Q, tl: &pl.prog.Layers[p.layer],
		srcLoad: loadKind(src), wLoad: loadKindOf(l.W), bLoad: loadKindOf(l.B),
		nzLoad: loadKindOf(l.NZ), rowPtrLoad: loadKindOf(l.RowPtr), colsLoad: loadKindOf(l.Cols),
		accLoad: loadKindOf(img.AccA), ctlLoad: loadKind(img.Ctl),
		homeStore: storeKind(home), ctlStore: storeKind(img.Ctl),
		marks: make([]int32, home.Len())}
}

// loadKindOf is loadKind for a region the layer may not have, whose
// loads are then never charged.
func loadKindOf(r *mem.Region) mcu.OpKind {
	if r == nil {
		return mcu.OpLoadFRAM
	}
	return loadKind(r)
}

// target returns the word of the pass's written region that iteration it
// writes. Every iteration writes exactly one task-shared word; the
// read-modify-write passes read that same word first.
func (c *charger) target(it int) int {
	q, tl := c.q, c.tl
	switch c.p.kind {
	case passConvAcc:
		e, i := it/tl.Positions, it%tl.Positions
		widx := e
		if len(q.NZ) > 0 {
			widx = int(q.NZ[e])
		}
		return int(tl.WAccBase[widx]) + i
	case passFCAcc:
		return it % q.Out
	case passSpAcc:
		return int(tl.SpRow[tl.SpanOf[it]])
	}
	return it
}

// profile returns task t's profile; prevLayer is the layer whose
// transition section the dispatch loop charges in before it.
func (c *charger) profile(t int, prevLayer int32) taskProfile {
	pr := taskProfile{layer: c.p.layer, prevLayer: prevLayer}
	task.ChargeRead(&pr.control, c.ctlLoad, false)
	task.ChargeWrite(&pr.control, true)
	k := c.pl.k
	var homes [mcu.NumOps]int
	for it := t * k; it < min(t*k+k, c.p.n); it++ {
		if c.iter(it, &pr.kernel, int32(t+1)) {
			homes[c.homeStore]++
		}
	}
	homes[c.ctlStore]++ // the cursor's entry
	task.ChargeCommit(&pr.commit, &homes)
	return pr
}

// iter adds iteration it's kernel ops and reports whether its write
// appended a fresh redo-log entry.
func (c *charger) iter(it int, ops *[mcu.NumOps]int, stamp int32) (fresh bool) {
	q, tl := c.q, c.tl
	rmw := false // the iteration reads the word it writes
	switch c.p.kind {
	case passReLU:
		ops[mcu.OpBranch]++
		task.ChargeRead(ops, c.srcLoad, false)
	case passPool:
		ops[mcu.OpBranch] += q.Window * q.Window
		ops[c.srcLoad] += q.Window * q.Window
	case passConvZero, passSpZero:
		ops[mcu.OpBranch]++
	case passConvAcc:
		e := it / tl.Positions
		ops[mcu.OpBranch]++
		if len(q.NZ) > 0 {
			ops[c.nzLoad]++
		}
		ops[c.wLoad]++
		ops[c.srcLoad]++
		ops[mcu.OpFixedMul]++
		rmw = len(q.NZ) > 0 || !tl.First[e]
	case passFCAcc:
		ops[mcu.OpBranch]++
		ops[c.srcLoad]++
		ops[c.wLoad]++
		ops[mcu.OpFixedMul]++
		rmw = it/q.Out > 0
	case passSpAcc:
		s := searchSteps(q.Out, int(tl.SpRow[tl.SpanOf[it]]))
		ops[mcu.OpBranch] += 1 + s
		ops[c.rowPtrLoad] += s
		ops[c.wLoad]++
		ops[c.colsLoad]++
		ops[c.srcLoad]++
		ops[mcu.OpFixedMul]++
		rmw = true
	case passConvFin, passFCFin, passSpFin:
		ops[mcu.OpBranch]++
		ops[c.bLoad]++
		task.ChargeRead(ops, c.accLoad, false)
		ops[mcu.OpFixedAdd]++
	}
	w := c.target(it)
	privatized := c.marks[w] == stamp
	if rmw {
		task.ChargeRead(ops, c.accLoad, privatized)
		ops[mcu.OpFixedAdd]++
	}
	task.ChargeWrite(ops, !privatized)
	c.marks[w] = stamp
	return !privatized
}

// runAt returns the run holding task t of pass pi.
func (pl *tilePlan) runAt(pi int, t int32) int {
	lo, hi := int(pl.passes[pi].run0), len(pl.runs)
	if pi+1 < len(pl.passes) {
		hi = int(pl.passes[pi+1].run0)
	}
	for lo+1 < hi { // invariant: runs[lo].first <= t, and run hi starts after t
		if mid := (lo + hi) / 2; pl.runs[mid].first <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
