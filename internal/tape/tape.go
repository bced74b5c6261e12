// Package tape compiles a quantized network once into flat, pre-decoded
// per-layer op tables — precomputed region offsets, filter-coordinate
// decodes, loop-axis address tables, and section labels — that the
// runtimes execute in tight loops on mcu.Device instead of re-deriving
// div/mod chains, rebuilding decode memos, and re-allocating scratch on
// every inference (or, for Base, on every brown-out retry).
//
// A Program changes *how fast the host simulates*, never *what the device
// does*: every runtime executes from these tables, and the op stream they
// issue — every charged Load/Store/Op, every section transition, every
// commit point — is the one the per-iteration coordinate decodes would
// issue, so logits, Stats, reboot placement, and WAR records are pinned
// per runtime by the goldens TestExecutorGolden and TestFig9Golden
// (harness), which were captured from the layer walk that decoded
// coordinates on every iteration before it was deleted.
//
// Programs are immutable after Compile and safe to share across
// goroutines; per-inference mutable workspace comes from the program's
// Scratch pool. Get memoizes compilation per model, so a fleet campaign
// compiles each network once per process no matter how many devices run
// it.
package tape

import (
	"sync"

	"repro/internal/core"
	"repro/internal/dnn"
)

// Layer is one layer's pre-decoded tables. Only the tables meaningful for
// the layer's kind are populated; all indices are int32 to keep big conv
// tables dense in memory.
type Layer struct {
	// Name is the layer's section label (core.LayerName), computed once.
	Name string
	// Flips reports whether the layer flips the activation ping-pong
	// parity (every value-producing kind; flatten does not).
	Flips bool

	// Convolution tables (QConv). The filter-element-major walk used by
	// every runtime decodes each flat weight index widx into
	// (f, ci, ky, kx); these tables hold the two derived offsets the
	// kernels actually use.
	Positions int     // output positions per filter (oh*ow)
	EPF       int     // filter elements per filter (C*KH*KW)
	Elems     int     // walked filter elements: len(NZ), or all of W
	WSrc      []int32 // widx -> top-left input offset (ci*h+ky)*w + kx
	WAccBase  []int32 // widx -> accumulator base f*Positions
	PosOff    []int32 // output position i -> input offset (i/ow)*w + i%ow
	First     []bool  // walked element pos -> first element of its filter
	FilterOf  []int32 // output element i -> its filter i/Positions

	// Pooling table (QPool): output element i -> input offset of its
	// window's top-left element.
	PoolBase []int32

	// Sparse CSR span tables (QSparseDense). Spans enumerate the rows
	// owning at least one nonzero, in nonzero order, so the sparse
	// executor walks rows without ever probing RowPtr word by word at run
	// time; row-advance branch counts fall out of consecutive SpRow
	// differences (the pre-derived form of the scalar walk's RowPtr
	// probes).
	SpStart []int32 // span s -> first nonzero index (RowPtr[row])
	SpLen   []int32 // span s -> nonzero count of the row
	SpRow   []int32 // span s -> owning row index
	SpanOf  []int32 // nonzero pos -> owning span index

	// TAILS dense-conv tables (QConv with no NZ list): the accelerated
	// path iterates (output row r, filter-element generation g) instead
	// of (element, position), so both axes pre-decode separately.
	// Rows r ∈ [0, F*oh): f = r/oh, oy = r%oh.
	// Generations g ∈ [0, C*KH): ci = g/KH, ky = g%KH.
	RowAcc  []int32 // r -> output/accumulator row base f*oh*ow + oy*ow
	RowSrcY []int32 // r -> input row offset oy*w
	RowCoef []int32 // r -> coefficient base f*EPF
	GenSrc  []int32 // g -> input offset (ci*h+ky)*w
	GenCoef []int32 // g -> coefficient offset g*KW
}

// Program is one network's compiled tape: per-layer decode tables plus
// sizing for the shared scratch pool. Immutable after Compile.
type Program struct {
	Model  *dnn.QuantModel
	Layers []Layer
	// FinalParity is the activation parity holding the output after the
	// full layer walk (sonic.FinalParity's answer, folded in at compile).
	FinalParity bool

	maxAcc int // largest conv accumulator block (F*Positions)
	maxOut int // largest single-pass output length
	maxRow int // largest conv output row (ow)

	zeros []int64 // shared all-zero block; read-only after Compile
	pool  sync.Pool
}

// Scratch is one inference's mutable workspace, sized for the program's
// largest passes. Executors borrow it for the duration of an inference so
// hot loops (and Base's per-retry attempts) allocate nothing.
type Scratch struct {
	Row []int64 // one conv output row (>= maxRow)
	Out []int64 // one pass's outputs (>= maxOut)
}

// GetScratch borrows a workspace from the program's pool.
func (p *Program) GetScratch() *Scratch {
	return p.pool.Get().(*Scratch)
}

// PutScratch returns a workspace to the pool.
func (p *Program) PutScratch(s *Scratch) { p.pool.Put(s) }

// Zeros returns a shared all-zero block of length n (n <= the largest
// accumulator block). Callers must treat it as read-only.
func (p *Program) Zeros(n int) []int64 { return p.zeros[:n] }

// cache memoizes Compile per model pointer: quantized models are
// immutable once deployed, so identity is the right key, and a fleet
// compiles each network once per process.
var cache sync.Map // *dnn.QuantModel -> *Program

// Get returns the model's compiled program, compiling it on first use.
func Get(qm *dnn.QuantModel) *Program {
	if p, ok := cache.Load(qm); ok {
		return p.(*Program)
	}
	p, _ := cache.LoadOrStore(qm, Compile(qm))
	return p.(*Program)
}

// Forget drops qm's compiled program from the cache, for callers that
// run a model once: the cache otherwise holds the model and its program
// for the life of the process. A later Get compiles it again.
func Forget(qm *dnn.QuantModel) { cache.Delete(qm) }

// Compile lowers the model into its pre-decoded tables.
func Compile(qm *dnn.QuantModel) *Program {
	p := &Program{Model: qm, Layers: make([]Layer, len(qm.Layers))}
	for li := range qm.Layers {
		q := &qm.Layers[li]
		tl := &p.Layers[li]
		tl.Name = core.LayerName(qm, li)
		tl.Flips = q.Kind != dnn.QFlatten
		if tl.Flips {
			p.FinalParity = !p.FinalParity
		}
		switch q.Kind {
		case dnn.QConv:
			compileConv(q, tl)
			if acc := q.F * tl.Positions; acc > p.maxAcc {
				p.maxAcc = acc
			}
			if acc := q.F * tl.Positions; acc > p.maxOut {
				p.maxOut = acc
			}
			if ow := q.OutShape[2]; ow > p.maxRow {
				p.maxRow = ow
			}
		case dnn.QPool:
			compilePool(q, tl)
		case dnn.QReLU:
			if n := q.InShape.Len(); n > p.maxOut {
				p.maxOut = n
			}
		case dnn.QDense:
			if q.Out > p.maxOut {
				p.maxOut = q.Out
			}
		case dnn.QSparseDense:
			compileSparse(q, tl)
			if q.Out > p.maxOut {
				p.maxOut = q.Out
			}
		}
	}
	p.zeros = make([]int64, p.maxAcc)
	maxRow, maxOut := p.maxRow, p.maxOut
	p.pool.New = func() any {
		return &Scratch{Row: make([]int64, maxRow), Out: make([]int64, maxOut)}
	}
	return p
}

// compileConv fills the convolution tables: one entry per flat weight
// index for the source/accumulator offsets, one per walked element for
// filter-boundary detection, one per output position/element for the
// inner-loop and finalize decodes, and the row/generation axes the TAILS
// hardware path iterates for dense filters.
func compileConv(q *dnn.QuantLayer, tl *Layer) {
	h, w := q.InShape[1], q.InShape[2]
	oh, ow := q.OutShape[1], q.OutShape[2]
	tl.Positions = oh * ow
	tl.EPF = q.C * q.KH * q.KW
	tl.Elems = len(q.W)
	if q.NZ != nil {
		tl.Elems = len(q.NZ)
	}

	tl.WSrc = make([]int32, len(q.W))
	tl.WAccBase = make([]int32, len(q.W))
	for widx := range q.W {
		kx := widx % q.KW
		ky := (widx / q.KW) % q.KH
		ci := (widx / (q.KW * q.KH)) % q.C
		f := widx / tl.EPF
		tl.WSrc[widx] = int32((ci*h+ky)*w + kx)
		tl.WAccBase[widx] = int32(f * tl.Positions)
	}

	tl.First = make([]bool, tl.Elems)
	for pos := 0; pos < tl.Elems; pos++ {
		if q.NZ != nil {
			tl.First[pos] = pos == 0 ||
				int(q.NZ[pos-1])/tl.EPF != int(q.NZ[pos])/tl.EPF
		} else {
			tl.First[pos] = pos%tl.EPF == 0
		}
	}

	tl.PosOff = make([]int32, tl.Positions)
	for i := 0; i < tl.Positions; i++ {
		tl.PosOff[i] = int32((i/ow)*w + i%ow)
	}
	tl.FilterOf = make([]int32, q.F*tl.Positions)
	for i := range tl.FilterOf {
		tl.FilterOf[i] = int32(i / tl.Positions)
	}

	if q.NZ == nil {
		tl.RowAcc = make([]int32, q.F*oh)
		tl.RowSrcY = make([]int32, q.F*oh)
		tl.RowCoef = make([]int32, q.F*oh)
		for r := range tl.RowAcc {
			f, oy := r/oh, r%oh
			tl.RowAcc[r] = int32(f*oh*ow + oy*ow)
			tl.RowSrcY[r] = int32(oy * w)
			tl.RowCoef[r] = int32(f * tl.EPF)
		}
		tl.GenSrc = make([]int32, q.C*q.KH)
		tl.GenCoef = make([]int32, q.C*q.KH)
		for g := range tl.GenSrc {
			ci, ky := g/q.KH, g%q.KH
			tl.GenSrc[g] = int32((ci*h + ky) * w)
			tl.GenCoef[g] = int32(g * q.KW)
		}
	}
}

// compileSparse fills the CSR span tables: one span per row owning at
// least one nonzero, in nonzero order, with the position→span back-map
// used to resume mid-layer. Row lengths are clamped to the nonzero count
// exactly as the scalar walk clamps RowPtr[row+1].
func compileSparse(q *dnn.QuantLayer, tl *Layer) {
	nnz := int32(len(q.W))
	tl.SpanOf = make([]int32, nnz)
	for row := 0; row+1 < len(q.RowPtr); row++ {
		s, e := q.RowPtr[row], q.RowPtr[row+1]
		if e > nnz {
			e = nnz
		}
		if e <= s {
			continue // empty row: never executed, only advanced over
		}
		si := int32(len(tl.SpStart))
		tl.SpStart = append(tl.SpStart, s)
		tl.SpLen = append(tl.SpLen, e-s)
		tl.SpRow = append(tl.SpRow, int32(row))
		for p := s; p < e; p++ {
			tl.SpanOf[p] = si
		}
	}
}

// compilePool fills the pooling window-origin table.
func compilePool(q *dnn.QuantLayer, tl *Layer) {
	c, h, w := q.InShape[0], q.InShape[1], q.InShape[2]
	oh, ow := h/q.Window, w/q.Window
	tl.PoolBase = make([]int32, c*oh*ow)
	n := 0
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				tl.PoolBase[n] = int32((ci*h+oy*q.Window)*w + ox*q.Window)
				n++
			}
		}
	}
}
