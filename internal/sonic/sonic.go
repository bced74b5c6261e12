// Package sonic implements SONIC, the paper's software system for DNN
// inference on intermittent power (§6). SONIC deliberately "breaks the
// rules" of task-based systems: instead of privatizing and redo-logging
// task-shared state, it writes loop indices directly to non-volatile
// memory (loop continuation) and makes every loop iteration idempotent via
// loop-ordered buffering (convolutions and dense fully-connected layers)
// and sparse undo-logging (sparse fully-connected layers).
//
// Progress state is a single packed FRAM word — (layer, pass, pos, i) —
// so each checkpoint is one atomic store, and Task_Next_Filter's
// "atomic { swap buffers; i = 0; pos++ }" (Listing 1) is a single word
// update: the double-buffer parity is derived from pos.
//
// SONIC produces logits bit-identical to dnn.QuantModel.Forward under any
// power schedule.
package sonic

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// SONIC is the software-only runtime. The zero value is the paper's
// configuration; SparseViaBuffering is an ablation knob that disables
// sparse undo-logging and runs sparse fully-connected layers with
// loop-ordered buffering instead, paying the buffer-copying cost §6.2.2
// describes ("SONIC ends up spending most of its time and energy copying
// unmodified activations between buffers").
type SONIC struct {
	SparseViaBuffering bool
}

// Name identifies the runtime.
func (s SONIC) Name() string {
	if s.SparseViaBuffering {
		return "sonic-nosul" // no sparse undo-logging
	}
	return "sonic"
}

// Control-block slots.
const (
	slotCursor    = 0 // packed (layer, pass, pos, i)
	slotRead      = 1 // sparse undo-logging read index
	slotCanonical = 2 // sparse undo-logging canonical value
)

// Cursor packs SONIC's entire progress state into one word so that every
// checkpoint is a single atomic FRAM store. TAILS reuses it.
type Cursor struct {
	Layer int
	Pass  int // 0 = main pass, then layer-specific passes
	Pos   int // outer loop: filter element / input element / nonzero index
	I     int // inner loop: output position / output index
}

// Pack encodes the cursor as a single word.
func (c Cursor) Pack() int64 {
	return int64(c.Layer)<<44 | int64(c.Pass)<<40 | int64(c.Pos)<<20 | int64(c.I)
}

// Unpack decodes a packed cursor word.
func Unpack(v int64) Cursor {
	return Cursor{
		Layer: int(v >> 44),
		Pass:  int(v>>40) & 0xf,
		Pos:   int(v>>20) & 0xfffff,
		I:     int(v) & 0xfffff,
	}
}

// Infer runs one inference with loop continuation. It completes on any
// power system whose buffer can fund a single loop iteration.
func (s SONIC) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	return s.ResumeInfer(img, nil)
}

// ResumeInfer implements core.Resumer: Infer minus LoadInput, with an
// optional pre-attempt hook for restoring a forked prefix. Loop
// continuation needs no special resume handling — recovering from whatever
// the restored cursor says is exactly its normal reboot path.
func (s SONIC) ResumeInfer(img *core.Image, atReboot func() error) ([]fixed.Q15, error) {
	e := &Exec{Img: img, Dev: img.Dev, SparseViaBuffering: s.SparseViaBuffering}
	e.Dev.Emit(mcu.TraceRunBegin, s.Name(), 0)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	if err := e.Dev.Run(func() { e.ResetVolatile(); e.Run((*Exec).RunLayerSoftware) }); err != nil {
		return nil, err
	}
	e.Dev.FlushTrace()
	return img.ReadOutput(FinalParity(img.Model)), nil
}

// FinalParity computes which activation buffer holds the output: every
// value-producing layer flips the ping-pong parity; flatten does not.
func FinalParity(qm *dnn.QuantModel) bool {
	parity := false
	for i := range qm.Layers {
		if qm.Layers[i].Kind != dnn.QFlatten {
			parity = !parity
		}
	}
	return parity
}

// Exec is the volatile execution context shared by SONIC and TAILS; it is
// reconstructed from the packed cursor after every reboot.
type Exec struct {
	Img *core.Image
	Dev *mcu.Device

	// SparseViaBuffering selects the ablated sparse-FC kernel.
	SparseViaBuffering bool

	// Every > 1 switches the progress policy from loop continuation to
	// periodic checkpointing (package checkpoint): the durable cursor is
	// stored only every Every-th iteration, together with a register/stack
	// dump of RegWords words, and the in-between iterations keep their
	// index in volatile registers. Boundaries (generation, pass, layer)
	// and sparse undo-logging iterations always checkpoint, because
	// re-execution across them is not idempotent.
	Every    int
	RegWords int

	sinceCk int

	// Host-side bookkeeping reused across the reboots of one inference:
	// the model's compiled op tape (see Program), the fused kernels'
	// charge profiles and the arenas they live in (see unitBlock), and the
	// sparse walk's segment train.
	prog       *tape.Program
	profiles   []layerProfiles
	blockArena []mcu.Block
	opArena    []mcu.BlockOp
	segs       []mcu.TrainSeg
}

// ResetVolatile clears the engine's register-resident state; runtimes call
// it at the top of every attempt, since a reboot wipes registers.
func (s *Exec) ResetVolatile() { s.sinceCk = 0 }

// LayerFn executes (or resumes) one layer from the given start cursor,
// reading activations from src and writing to dst. SONIC's is
// (*Exec).RunLayerSoftware; TAILS substitutes its LEA kernels for the
// compute-heavy layers.
type LayerFn func(s *Exec, li int, parity bool, start Cursor)

// Program returns the model's compiled op tape (tape.Get), resolved once
// per Exec: every kernel reads its coordinate decodes and section labels
// from it rather than re-deriving them per iteration.
func (s *Exec) Program() *tape.Program {
	if s.prog == nil {
		s.prog = tape.Get(s.Img.Model)
	}
	return s.prog
}

// Checkpoint writes the packed cursor — SONIC's per-iteration progress
// store, the "unsafe" direct NV write that loop continuation legalizes.
func (s *Exec) Checkpoint(c Cursor) {
	if s.Every > 1 {
		s.sinceCk++
		if s.sinceCk < s.Every {
			// Index stays in a volatile register; a failure here replays
			// from the last durable checkpoint (wasted work).
			s.Dev.Op(mcu.OpIncrement)
			return
		}
	}
	s.ForceCheckpoint(c)
}

// ForceCheckpoint makes the cursor durable regardless of the checkpoint
// policy. Under periodic checkpointing it also dumps the modelled
// register/stack state, as software checkpointing systems must.
func (s *Exec) ForceCheckpoint(c Cursor) {
	if s.Every > 1 {
		s.sinceCk = 0
		s.Dev.Emit(mcu.TraceCheckpoint, "", int64(s.RegWords))
		s.Dev.Ops(mcu.OpStoreFRAM, s.RegWords)
	} else {
		s.Dev.Emit(mcu.TraceLoopIndex, "", c.Pack())
	}
	// StoreIndex lets the device model apply the §10 just-in-time index
	// checkpoint architecture when enabled; on the stock MSP430 model it
	// is a plain FRAM store.
	s.Dev.StoreIndex(s.Img.Ctl, slotCursor, c.Pack())
	s.Dev.Progress()
}

// Transition marks a task boundary (filter-element or layer change): one
// cursor store plus the lightweight dispatch cost.
func (s *Exec) Transition(layer string, c Cursor) {
	s.Dev.SetSection(layer, mcu.PhaseTransition)
	s.Dev.Op(mcu.OpTransition)
	s.ForceCheckpoint(c)
}

// Run executes (or resumes) the whole inference. On entry it decodes the
// cursor from FRAM and jumps to the interrupted iteration.
func (s *Exec) Run(layerFn LayerFn) {
	dev := s.Dev
	dev.SetSection("other", mcu.PhaseControl)
	cur := Unpack(dev.Load(s.Img.Ctl, slotCursor))

	parity := false
	for li := 0; li < len(s.Img.Layers); li++ {
		q := s.Img.Layers[li].Q
		flips := q.Kind != dnn.QFlatten
		if li < cur.Layer {
			if flips {
				parity = !parity
			}
			continue // already completed before the last failure
		}
		start := Cursor{Layer: li}
		if li == cur.Layer {
			start = cur
		}
		layerFn(s, li, parity, start)
		if flips {
			parity = !parity
		}
		s.Transition(core.LayerName(s.Img.Model, li), Cursor{Layer: li + 1})
	}
}

// RunLayerSoftware executes one layer from the given resume point using
// SONIC's software kernels. Convolution, pooling and sparse layers read
// their coordinate decodes from the compiled tape; dense and ReLU layers
// are decode-free.
func (s *Exec) RunLayerSoftware(li int, parity bool, start Cursor) {
	l := &s.Img.Layers[li]
	tl := &s.Program().Layers[li]
	src, dst := ActBufs(s.Img, parity)
	name := tl.Name
	s.Dev.SetSection(name, mcu.PhaseControl)

	switch l.Q.Kind {
	case dnn.QConv:
		s.tapeConvLayer(l, tl, src, dst, start)
	case dnn.QDense:
		s.denseLayer(l, name, src, dst, start)
	case dnn.QSparseDense:
		if s.SparseViaBuffering {
			s.sparseLayerBuffered(l, name, src, dst, start)
		} else {
			s.tapeSparseLayer(l, tl, src, dst, start)
		}
	case dnn.QReLU:
		tokK := s.Dev.SectionToken(name, mcu.PhaseKernel)
		tokC := s.Dev.SectionToken(name, mcu.PhaseControl)
		var blk *mcu.Block
		var per int
		if s.canFuse() {
			blk, per = s.unitBlock(s.profile(li, profFirst), tokC,
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 1},
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		}
		srcW, dstW := src.ROWords(), dst.Words()
		s.fuseMap(tokK, tokC, blk, per, start, l.Q.InShape.Len(), func(i0, m int) {
			kern.ReLU(dstW, srcW, i0, i0, m)
		}, func(i int) {
			v := fixed.ReLU(fixed.Q15(s.Dev.Load(src, i)))
			s.Dev.Store(dst, i, int64(v))
		})
	case dnn.QPool:
		s.tapePoolLayer(l, tl, src, dst, start)
	case dnn.QFlatten:
		// identity: nothing to execute
	}
}

// ActBufs returns (src, dst) activation buffers for a parity.
func ActBufs(img *core.Image, parity bool) (*mem.Region, *mem.Region) {
	if parity {
		return img.ActB, img.ActA
	}
	return img.ActA, img.ActB
}

// AccBufs returns (dest, inter) partial buffers for a filter-element index:
// the double buffer swaps every outer iteration, so parity is pos&1.
func AccBufs(img *core.Image, pos int) (dest, inter *mem.Region) {
	if pos&1 == 0 {
		return img.AccA, img.AccB
	}
	return img.AccB, img.AccA
}

// mapLayer runs an elementwise pass (ReLU, pooling) with loop continuation
// on the single index i.
func (s *Exec) MapLayer(name string, start Cursor, n int, body func(i int)) {
	dev := s.Dev
	for i := start.I; i < n; i++ {
		dev.SetSection(name, mcu.PhaseKernel)
		dev.Op(mcu.OpBranch)
		body(i)
		dev.SetSection(name, mcu.PhaseControl)
		s.Checkpoint(Cursor{Layer: start.Layer, Pass: start.Pass, I: i + 1})
	}
}

// denseLayer applies loop-ordered buffering to a dense fully-connected
// layer: the outer loop walks input elements, the inner loop updates every
// output's partial in the opposite buffer.
func (s *Exec) denseLayer(l *core.LayerImage, name string, src, dst *mem.Region, start Cursor) {
	q := l.Q
	dev := s.Dev
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)
	fuse := s.canFuse()
	var blkFirst, blkRest *mcu.Block
	var per int
	if fuse {
		blkFirst, per = s.unitBlock(s.profile(start.Layer, profFirst), tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedMul, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		blkRest, _ = s.unitBlock(s.profile(start.Layer, profRest), tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedMul, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	}
	if start.Pass == 0 {
		wW := l.W.ROWords()
		for pos := start.Pos; pos < q.In; pos++ {
			dev.SetSection(name, mcu.PhaseControl)
			x := fixed.Q15(dev.Load(src, pos))
			dest, inter := AccBufs(s.Img, pos)
			iStart := 0
			if pos == start.Pos {
				iStart = start.I
			}
			for o := iStart; o < q.Out; {
				if fuse {
					blk := blkRest
					if pos == 0 {
						blk = blkFirst
					}
					if m := s.fuseIters(blk, per, o, q.Out); m > 0 {
						if pos == 0 {
							kern.DenseFirst(dest.Words(), wW, q.In, pos, o, m, int64(x))
						} else {
							kern.DenseMAC(dest.Words(), inter.ROWords(), wW, q.In, pos, o, m, int64(x))
						}
						o += m
						s.fuseCommit(Cursor{Layer: start.Layer, Pos: pos, I: o})
						continue
					}
				}
				dev.SetSectionTok(tokK)
				dev.Op(mcu.OpBranch)
				wv := fixed.Q15(dev.Load(l.W, o*q.In+pos))
				dev.Op(mcu.OpFixedMul)
				var a fixed.Acc
				if pos > 0 {
					a = fixed.Acc(dev.Load(inter, o))
					dev.Op(mcu.OpFixedAdd)
				}
				dev.Store(dest, o, int64(a.MAC(wv, x)))
				dev.SetSectionTok(tokC)
				s.Checkpoint(Cursor{Layer: start.Layer, Pos: pos, I: o + 1})
				o++
			}
			s.Transition(name, Cursor{Layer: start.Layer, Pos: pos + 1})
		}
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
	}
	final, _ := AccBufs(s.Img, q.In-1)
	var blkFin *mcu.Block
	if fuse {
		blkFin, per = s.unitBlock(s.profile(start.Layer, profFin), tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	}
	finalW, bW, dstW := final.ROWords(), l.B.ROWords(), dst.Words()
	s.fuseMap(tokK, tokC, blkFin, per, start, q.Out, func(i0, m int) {
		kern.FinalizeVec(dstW, finalW, bW, i0, i0, m, q.Shift)
	}, func(o int) {
		bq := fixed.Q15(dev.Load(l.B, o))
		a := fixed.Acc(dev.Load(final, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	})
}

// sparseLayerBuffered is the ablation of sparse undo-logging: the sparse
// fully-connected layer computed with loop-ordered buffering, as a dense
// layer would be. Each outer iteration applies one nonzero weight, but must
// copy every *unmodified* partial from the previous generation's buffer to
// the current one so the generations stay coherent — work proportional to
// the output size rather than to the modifications made. This is exactly
// the waste §6.2.2 identifies and sparse undo-logging eliminates.
func (s *Exec) sparseLayerBuffered(l *core.LayerImage, name string, src, dst *mem.Region, start Cursor) {
	q := l.Q
	dev := s.Dev
	nnz := len(q.W)

	if start.Pass == 0 {
		row := start.I
		gen := make([]int64, q.Out)
		for pos := start.Pos; pos < nnz; pos++ {
			dev.SetSection(name, mcu.PhaseControl)
			dest, inter := AccBufs(s.Img, pos)
			// Advance the CSR row cursor (carried in the packed cursor).
			for int(dev.Load(l.RowPtr, row+1)) <= pos {
				dev.Op(mcu.OpBranch)
				row++
			}
			wv := fixed.Q15(dev.Load(l.W, pos))
			col := int(dev.Load(l.Cols, pos))
			x := fixed.Q15(dev.Load(src, col))
			dev.Op(mcu.OpFixedMul)
			prod := fixed.Acc(0).MAC(wv, x)
			dev.SetSection(name, mcu.PhaseKernel)
			// One generation: copy all partials forward, adding the
			// product into the modified row. No checkpoint inside the
			// copy, so the whole generation charges as bulk macro-ops.
			dev.Ops(mcu.OpBranch, q.Out)
			if pos > 0 {
				dev.LoadRange(inter, 0, q.Out)
			}
			dev.Op(mcu.OpFixedAdd) // the one modified row
			for o := 0; o < q.Out; o++ {
				var a fixed.Acc
				if pos > 0 {
					a = fixed.Acc(inter.Get(o))
				}
				if o == row {
					a += prod
				}
				gen[o] = int64(a)
			}
			dev.StoreRange(dest, 0, gen)
			dev.SetSection(name, mcu.PhaseControl)
			s.Checkpoint(Cursor{Layer: start.Layer, Pos: pos + 1, I: row})
		}
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
	}

	var final *mem.Region
	if nnz > 0 {
		final, _ = AccBufs(s.Img, nnz-1)
	}
	s.MapLayer(name, start, q.Out, func(o int) {
		bq := fixed.Q15(dev.Load(l.B, o))
		var a fixed.Acc
		if final != nil {
			a = fixed.Acc(dev.Load(final, o))
			dev.Op(mcu.OpFixedAdd)
		}
		dev.Store(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	})
}
