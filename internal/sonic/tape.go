package sonic

import (
	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/tape"
)

// tapeConvLayer is the loop-ordered-buffering convolution of Fig. 7/
// Listing 1. The outer loop (pos) walks filter elements — the NZ list for
// pruned filters, every element for dense ones. Each inner iteration
// applies the current filter element to one output position, reading only
// the *previous* generation's partials (inter) and writing only the
// current generation's (dest): no location is both read and written, so
// every iteration is idempotent.
//
// Because loops are ordered so a filter's elements are consecutive, each
// filter's output block alternates buffers independently of the others:
// the first element of a filter writes without reading (so no generation
// crosses filters), and the finalize pass picks up each filter's partials
// from the parity of its last element.
//
// Every coordinate decode is read from the compiled tape: the
// filter-element decode (kx/ky/ci/f) from WSrc and WAccBase, the
// first-element-of-filter test from First, the inner position decode
// (oy, ox) from PosOff, and the finalize filter decode from FilterOf. The
// NZ boundary probe loads are still issued — they are charged device
// work — but their values feed nothing the tables don't already answer.
func (s *Exec) tapeConvLayer(l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, start Cursor) {
	q := l.Q
	positions := tl.Positions
	dev := s.Dev
	// Hoist the tables into locals: dev.Load/Store are opaque calls, so
	// slice reads through the tl pointer would reload the header (and
	// re-bounds-check) on every inner iteration.
	wSrc, wAcc, first, posOff, filterOf := tl.WSrc, tl.WAccBase, tl.First, tl.PosOff, tl.FilterOf
	name := tl.Name
	// Pre-resolve the layer's two attribution sections once: the inner loop
	// flips kernel↔control per iteration, and a token switch is an index
	// load where the string path rebuilds and compares a Section value.
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)

	// Fused fast path: the inner loop's charge profile is uniform within
	// one filter element (one branch, the src load, the multiply, the
	// previous-generation load+add except on a filter's first element,
	// the dest store, and the commit), so whole runs of funded iterations
	// execute as bulk word loops.
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
	srcW := src.ROWords()

	if start.Pass == 0 {
		for pos := start.Pos; pos < tl.Elems; pos++ {
			// Task entry (Task_Convolve): load the filter element into
			// volatile registers. Re-executed after every power failure.
			dev.SetSectionTok(tokC)
			widx := pos
			if l.NZ != nil {
				widx = int(dev.Load(l.NZ, pos))
				if pos > 0 {
					dev.Load(l.NZ, pos-1) // boundary probe, pre-decoded into First
				}
			}
			firstOfFilter := first[pos]
			wv := fixed.Q15(dev.Load(l.W, widx))
			srcBase := int(wSrc[widx])
			base := int(wAcc[widx])
			dest, inter := AccBufs(s.Img, pos)

			iStart := 0
			if pos == start.Pos {
				iStart = start.I
			}
			for i := iStart; i < positions; {
				if fuse {
					blk := blkRest
					if firstOfFilter {
						blk = blkFirst
					}
					if m := s.fuseIters(blk, per, i, positions); m > 0 {
						if firstOfFilter {
							kern.ConvFirst(dest.Words(), srcW, base, srcBase, posOff, i, m, int64(wv))
						} else {
							kern.ConvMAC(dest.Words(), inter.ROWords(), srcW, base, srcBase, posOff, i, m, int64(wv))
						}
						i += m
						s.fuseCommit(Cursor{Layer: start.Layer, Pos: pos, I: i})
						continue
					}
				}
				dev.SetSectionTok(tokK)
				dev.Op(mcu.OpBranch)
				x := fixed.Q15(dev.Load(src, srcBase+int(posOff[i])))
				dev.Op(mcu.OpFixedMul)
				var a fixed.Acc
				if !firstOfFilter {
					a = fixed.Acc(dev.Load(inter, base+i))
					dev.Op(mcu.OpFixedAdd)
				}
				dev.Store(dest, base+i, int64(a.MAC(wv, x)))
				dev.SetSectionTok(tokC)
				s.Checkpoint(Cursor{Layer: start.Layer, Pos: pos, I: i + 1})
				i++
			}
			// Task_Next_Filter: swap buffers, reset i, advance pos — one
			// atomic word store since parity is derived from pos.
			s.Transition(name, Cursor{Layer: start.Layer, Pos: pos + 1})
		}
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
	}

	// Finalize pass: add bias and rescale each filter's final-generation
	// partials into Q15 activations. Fully-pruned filters (FinPar == -1)
	// have no partials and produce bias only.
	fin := func(i int) {
		f := int(filterOf[i])
		var par int64
		if l.FinPar != nil {
			par = dev.Load(l.FinPar, f)
		} else {
			par = int64(((f+1)*tl.EPF - 1) & 1)
		}
		bq := fixed.Q15(dev.Load(l.B, f))
		var a fixed.Acc
		if par >= 0 {
			final, _ := AccBufs(s.Img, int(par))
			a = fixed.Acc(dev.Load(final, i))
			dev.Op(mcu.OpFixedAdd)
		}
		dev.Store(dst, i, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
	}
	n := q.F * positions
	if !fuse {
		s.MapLayerTok(tokK, tokC, start, n, fin)
		return
	}
	// Fused finalize, one segment per filter: the charge profile is
	// constant within a filter (the parity lookup when FinPar exists, the
	// bias load, and — except for fully-pruned filters — the partial load
	// and add) but varies across filters, so segments charge separately.
	dstW := dst.Words()
	for i := start.I; i < n; {
		f := int(filterOf[i])
		segEnd := (f + 1) * positions
		if segEnd > n {
			segEnd = n
		}
		var par int64
		if l.FinPar != nil {
			par = l.FinPar.Get(f)
		} else {
			par = int64(((f+1)*tl.EPF - 1) & 1)
		}
		loads := 2 // bias + partial
		if l.FinPar != nil {
			loads++
		}
		// FinPar's presence is a layer property, so the profile varies
		// within the layer only with whether the filter has partials.
		adds, finSlot := 1, profFin
		if par < 0 {
			loads--
			adds, finSlot = 0, profFinBias
		}
		blk, _ := s.unitBlock(s.profile(start.Layer, finSlot), tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: loads},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: adds},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		for i < segEnd {
			if m := s.fuseIters(blk, per, i, segEnd); m > 0 {
				var finalW []int64
				if par >= 0 {
					final, _ := AccBufs(s.Img, int(par))
					finalW = final.ROWords()
				}
				kern.FinalizeConst(dstW, finalW, l.B.Get(f), i, i, m, q.Shift)
				i += m
				s.fuseCommit(Cursor{Layer: start.Layer, Pass: start.Pass, I: i})
				continue
			}
			dev.SetSectionTok(tokK)
			dev.Op(mcu.OpBranch)
			fin(i)
			dev.SetSectionTok(tokC)
			s.Checkpoint(Cursor{Layer: start.Layer, Pass: start.Pass, I: i + 1})
			i++
		}
	}
}

// tapeSparseLayer runs a sparse fully-connected layer with sparse
// undo-logging (§6.2.2): partials accumulate in place in AccA; before each
// modification the original value is copied to a canonical slot and the
// read index advances, so an interrupted update resumes from the buffered
// original. Work per iteration is proportional to the modifications made
// — one nonzero — not to the output size, which is why SONIC prefers it to
// loop-ordered buffering here.
//
// On a fusable device the CSR row walk runs fused end-to-end: instead of
// charging one iteration at a time (re-probing RowPtr at every row
// boundary on the host), it builds a charge *train* over the compiled span
// tables — one variable-profile segment per row remainder plus one
// boundary segment per row advance, with the advance's extra branch and
// probe-load ops pre-derived from consecutive SpRow differences — and
// funds the whole remaining layer in a single ChargeTrain call.
// kern.CSRSpans then executes exactly the funded iterations across row
// boundaries, committing each touched row's accumulator and one coalesced
// cursor at the end. ChargeTrain drains the same integer pJ at the same
// iteration boundaries as the scalar walk, so brown-outs land at
// identical op indices with identical partial energy.
//
// The first unfunded iteration, the one resume iteration whose undo-log
// read index is already past (rd > pos), and every iteration on an
// observed or scalar-forced device run the scalar walk; after the resume
// iteration executes, rd == pos and the train resumes.
func (s *Exec) tapeSparseLayer(l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, start Cursor) {
	q := l.Q
	dev := s.Dev
	acc := s.Img.AccA
	ctl := s.Img.Ctl
	nnz := len(q.W)
	name := tl.Name
	tokK := dev.SectionToken(name, mcu.PhaseKernel)
	tokC := dev.SectionToken(name, mcu.PhaseControl)
	fuse := s.canFuse()
	var per int

	switch start.Pass {
	case 0:
		// Zero the in-place accumulator (write-only, idempotent), and
		// rearm the undo-log read index (idempotent: re-zeroing after a
		// failure here is harmless because pass 1 has not started).
		var blkZero *mcu.Block
		if fuse {
			blkZero, per = s.unitBlock(s.profile(start.Layer, profZero), tokC,
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		}
		accW := acc.Words()
		s.fuseMap(tokK, tokC, blkZero, per, start, q.Out, func(i0, m int) {
			kern.Zero(accW, i0, m)
		}, func(o int) {
			dev.Store(acc, o, 0)
		})
		dev.Store(ctl, slotRead, 0)
		start = Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(name, start)
		fallthrough
	case 1:
		// The row is carried in the cursor's i field so the CSR walk
		// resumes without rescanning RowPtr from zero.
		//
		// In-row iterations advance no row (blkRow); a boundary
		// iteration's profile depends on how many rows it advances, and
		// networks have very few distinct advance counts.
		var blkRow *mcu.Block
		if fuse {
			blkRow = s.sparseRowBlock(start.Layer, tokK, tokC, 0)
		}
		spStart, spLen, spRow, spanOf := tl.SpStart, tl.SpLen, tl.SpRow, tl.SpanOf
		wW, colsW, srcW := l.W.ROWords(), l.Cols.ROWords(), src.ROWords()
		accW := acc.Words()
		row := start.I
		for pos := start.Pos; pos < nnz; {
			if fuse && int(ctl.Get(slotRead)) <= pos {
				// Build the remaining layer as a segment train from the
				// live (pos, row) state; ChargeTrain funds a prefix.
				si := int(spanOf[pos])
				// At most two segments per span: sized once per layer.
				if cap(s.segs) < 2*len(spStart) {
					s.segs = make([]mcu.TrainSeg, 0, 2*len(spStart))
				}
				segs := s.segs[:0]
				p, r := pos, row
				for sj := si; p < nnz; sj++ {
					end := int(spStart[sj]) + int(spLen[sj])
					inRow := end - p
					if adv := int(spRow[sj]) - r; adv > 0 {
						segs = append(segs, mcu.TrainSeg{Blk: s.sparseRowBlock(start.Layer, tokK, tokC, adv), N: 1})
						inRow--
						p++
					}
					if inRow > 0 {
						segs = append(segs, mcu.TrainSeg{Blk: blkRow, N: inRow})
						p += inRow
					}
					r = int(spRow[sj])
				}
				if n := dev.ChargeTrain(segs); n > 0 {
					endPos, _, lastRow, canon := kern.CSRSpans(wW, colsW, srcW, accW, spStart, spLen, spRow, si, pos, n)
					pos = endPos
					row = lastRow
					ctl.Put(slotCanonical, canon)
					ctl.Put(slotRead, int64(pos))
					s.fuseCommit(Cursor{Layer: start.Layer, Pass: 1, Pos: pos, I: row})
					continue
				}
			}
			// Scalar iteration.
			dev.SetSectionTok(tokK)
			dev.Op(mcu.OpBranch)
			// Advance row until RowPtr[row+1] > pos.
			for int(dev.Load(l.RowPtr, row+1)) <= pos {
				dev.Op(mcu.OpBranch)
				row++
			}
			// Sparse undo-logging two-phase update.
			rd := int(dev.Load(ctl, slotRead))
			if rd <= pos {
				orig := dev.Load(acc, row)
				dev.Store(ctl, slotCanonical, orig)
				dev.Store(ctl, slotRead, int64(pos+1))
				// The original value is now durable: overwriting acc[row]
				// is recoverable, not a WAR hazard.
				dev.MarkLogged(acc, row)
			}
			canon := fixed.Acc(dev.Load(ctl, slotCanonical))
			wv := fixed.Q15(dev.Load(l.W, pos))
			col := int(dev.Load(l.Cols, pos))
			x := fixed.Q15(dev.Load(src, col))
			dev.Op(mcu.OpFixedMul)
			dev.Op(mcu.OpFixedAdd)
			dev.Store(acc, row, int64(canon.MAC(wv, x)))
			dev.SetSectionTok(tokC)
			// Sparse undo-logging is only idempotent one iteration deep,
			// so even checkpointing runtimes commit the cursor here.
			s.ForceCheckpoint(Cursor{Layer: start.Layer, Pass: 1, Pos: pos + 1, I: row})
			pos++
		}
		start = Cursor{Layer: start.Layer, Pass: 2}
		s.Transition(name, start)
		fallthrough
	default:
		var blkFin *mcu.Block
		if fuse {
			blkFin, per = s.unitBlock(s.profile(start.Layer, profFin), tokC,
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
				mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
		}
		accW, bW, dstW := acc.ROWords(), l.B.ROWords(), dst.Words()
		s.fuseMap(tokK, tokC, blkFin, per, start, q.Out, func(i0, m int) {
			kern.FinalizeVec(dstW, accW, bW, i0, i0, m, q.Shift)
		}, func(o int) {
			bq := fixed.Q15(dev.Load(l.B, o))
			a := fixed.Acc(dev.Load(acc, o))
			dev.Op(mcu.OpFixedAdd)
			dev.Store(dst, o, int64(a.AddQ(bq).SatShiftSigned(q.Shift)))
		})
	}
}

// sparseRowBlock is the charge profile of one sparse undo-logging
// iteration that advances adv rows (the in-row profile when adv is 0): one branch and one failing RowPtr probe, plus one successful
// probe per row advanced, the read-index, original-partial,
// canonical-slot, weight, column and activation loads, the three-store
// two-phase update, and the MAC.
func (s *Exec) sparseRowBlock(layer int, tokK, tokC mcu.SectionTok, adv int) *mcu.Block {
	p := s.profile(layer, profRow)
	if adv > 0 {
		p = s.advanceProfile(layer, adv)
	}
	return s.forceUnitBlock(p, tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1 + adv},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 7 + adv},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 3},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedMul, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1})
}

// MapLayerTok is MapLayer with the per-iteration kernel/control section
// flips going through pre-resolved tokens. The op stream (branch charge,
// body, checkpoint) is identical to MapLayer's.
func (s *Exec) MapLayerTok(tokK, tokC mcu.SectionTok, start Cursor, n int, body func(i int)) {
	dev := s.Dev
	for i := start.I; i < n; i++ {
		dev.SetSectionTok(tokK)
		dev.Op(mcu.OpBranch)
		body(i)
		dev.SetSectionTok(tokC)
		s.Checkpoint(Cursor{Layer: start.Layer, Pass: start.Pass, I: i + 1})
	}
}

// tapePoolLayer is max pooling, one output element per iteration, with
// the window-origin decode ((ci, oy, ox) from i — three div/mods per
// output) read from PoolBase.
func (s *Exec) tapePoolLayer(l *core.LayerImage, tl *tape.Layer, src, dst *mem.Region, start Cursor) {
	q := l.Q
	w := q.InShape[2]
	poolBase := tl.PoolBase
	tokK := s.Dev.SectionToken(tl.Name, mcu.PhaseKernel)
	tokC := s.Dev.SectionToken(tl.Name, mcu.PhaseControl)
	var blk *mcu.Block
	var per int
	if s.canFuse() {
		win := q.Window * q.Window
		blk, per = s.unitBlock(s.profile(start.Layer, profFirst), tokC,
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1 + win},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: win},
			mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	}
	srcW, dstW := src.ROWords(), dst.Words()
	s.fuseMap(tokK, tokC, blk, per, start, len(poolBase), func(i0, m int) {
		kern.MaxPool(dstW, srcW, poolBase, q.Window, w, i0, m)
	}, func(i int) {
		rowStart := int(poolBase[i])
		best := fixed.MinusOne
		for ky := 0; ky < q.Window; ky++ {
			for kx := 0; kx < q.Window; kx++ {
				s.Dev.Op(mcu.OpBranch)
				v := fixed.Q15(s.Dev.Load(src, rowStart+kx))
				best = fixed.Max(best, v)
			}
			rowStart += w
		}
		s.Dev.Store(dst, i, int64(best))
	})
}
