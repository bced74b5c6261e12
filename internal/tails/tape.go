package tails

import (
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fixed"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
	"repro/internal/tape"
)

// layerFn dispatches layers: LEA paths for conv and dense, SONIC's software
// kernels for everything else. The LEA convolution reads its row/generation
// decodes from the compiled tape; the dense kernel is decode-free.
func (t TAILS) layerFn(sc *scratch) sonic.LayerFn {
	return func(s *sonic.Exec, li int, parity bool, start sonic.Cursor) {
		l := &s.Img.Layers[li]
		switch {
		case l.Q.Kind == dnn.QConv && l.NZ == nil:
			src, dst := sonic.ActBufs(s.Img, parity)
			t.tapeConvLayer(s, sc, l, &s.Program().Layers[li], src, dst, start)
		case l.Q.Kind == dnn.QDense:
			src, dst := sonic.ActBufs(s.Img, parity)
			t.denseLayer(s, sc, l, s.Program().Layers[li].Name, src, dst, start)
		default:
			// Sparse convolutions and sparse fully-connected layers run in
			// software exactly like SONIC. (The paper pads sparse filters
			// to run them on LEA and notes the wasted work "sometimes
			// hurts performance"; on this device model it always does, so
			// our TAILS keeps LEA for the dense and separated layers it
			// actually accelerates.)
			s.RunLayerSoftware(li, parity, start)
		}
	}
}

// tapeConvLayer computes a 2-D convolution as iterated 1-D FIR
// convolutions (§7.2), with loop-ordered buffering at row granularity for
// idempotence. Generations are (channel, kernel-row) pairs; each inner
// iteration convolves one calibrated chunk of one input row with one
// weight row — so the progress unit is exactly what calibration sized to
// the energy buffer — and accumulates into the opposite partial buffer.
// Activations are pre-shifted in software so that LEA's fixed Q15 output
// lands in the layer's final scale. Weight rows are used densely, pruned
// (zero) taps included, as §7.2 describes.
//
// The per-iteration coordinate decodes are read from the compiled tape.
// The calibrated tile size — and therefore the chunks-per-row count — is
// device state, not model state, so the inner (row, chunk) split stays a
// live counter pair (one div/mod at resume, increments after); the
// (f, oy) and (ci, ky) decodes and the derived coefficient/input/
// accumulator offsets all come from the row and generation tables.
func (t TAILS) tapeConvLayer(s *sonic.Exec, sc *scratch, l *core.LayerImage, tl *tape.Layer,
	src, dst *mem.Region, start sonic.Cursor) {
	q := l.Q
	dev := s.Dev
	ow := q.OutShape[2]
	gens := q.C * q.KH
	rows := q.F * q.OutShape[1]
	preShift := q.Shift
	if preShift < 0 {
		preShift = 0
	}
	postShift := -q.Shift
	if postShift < 0 {
		postShift = 0
	}
	ct := tile(s)
	if ct > ow {
		ct = ow
	}
	// Hoist the tables into locals so the chunk loop's opaque device calls
	// don't force slice-header reloads through tl on every access.
	rowAcc, rowSrcY, rowCoef := tl.RowAcc, tl.RowSrcY, tl.RowCoef
	genSrcTab, genCoefTab, filterOf := tl.GenSrc, tl.GenCoef, tl.FilterOf
	// Pre-resolve the layer's kernel/control sections: the chunk loop flips
	// attribution up to six times per chunk.
	tokK := dev.SectionToken(tl.Name, mcu.PhaseKernel)
	tokC := dev.SectionToken(tl.Name, mcu.PhaseControl)

	if start.Pass == 0 {
		chunks := (ow + ct - 1) / ct
		for pos := start.Pos; pos < gens; pos++ {
			dev.SetSectionTok(tokC)
			genSrc := int(genSrcTab[pos])
			coefOff := int(genCoefTab[pos])
			dest, inter := sonic.AccBufs(s.Img, pos)
			iStart := 0
			if pos == start.Pos {
				iStart = start.I
			}
			row, ck := iStart/chunks, iStart%chunks
			for i := iStart; i < rows*chunks; i++ {
				c0 := ck * ct
				n := ct
				if c0+n > ow {
					n = ow - c0
				}
				dev.SetSectionTok(tokC)
				t.blockIn(dev, sc.coef, 0, l.W, int(rowCoef[row])+coefOff, q.KW)
				rowBase := int(rowAcc[row])
				t.blockIn(dev, sc.in, 0, src, genSrc+int(rowSrcY[row])+c0, n+q.KW-1)
				preShiftRow(dev, sc.in, 0, n+q.KW-1, preShift)
				dev.SetSectionTok(tokK)
				t.fir(dev, sc.out, 0, sc.in, 0, sc.coef, 0, q.KW, n)
				dev.SetSectionTok(tokC)
				if pos > 0 {
					t.blockIn(dev, sc.out, n, inter, rowBase+c0, n)
					dev.SetSectionTok(tokK)
					t.addv(dev, sc.out, 0, sc.out, 0, sc.out, n, n)
					dev.SetSectionTok(tokC)
				}
				t.blockOut(dev, dest, rowBase+c0, sc.out, 0, n)
				s.Checkpoint(sonic.Cursor{Layer: start.Layer, Pos: pos, I: i + 1})
				if ck++; ck == chunks {
					ck = 0
					row++
				}
			}
			s.Transition(tl.Name, sonic.Cursor{Layer: start.Layer, Pos: pos + 1})
		}
		start = sonic.Cursor{Layer: start.Layer, Pass: 1}
		s.Transition(tl.Name, start)
	}

	// Finalize: post-shift (if the output scale is finer than LEA's) and
	// bias addition, elementwise in software.
	final, _ := sonic.AccBufs(s.Img, gens-1)
	// Fused finalize: the per-element charge profile is uniform across the
	// whole layer (post-shift presence is a layer property, and shiftBias
	// always charges one software shift), so one block covers it.
	adds := 1 // shiftBias
	if postShift > 0 {
		adds++
	}
	blk, per := s.FuseUnit(start.Layer, tokC,
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpBranch, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpLoadFRAM, N: 2},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpAdd, N: adds},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpFixedAdd, N: 1},
		mcu.BlockOp{Tok: tokK, Kind: mcu.OpStoreFRAM, N: 1})
	finalW, bW, dstW := final.ROWords(), l.B.ROWords(), dst.Words()
	s.FuseMapTok(tokK, tokC, blk, per, start, q.F*q.OutShape[1]*ow, func(i0, m int) {
		for i := i0; i < i0+m; i++ {
			v := fixed.Q15(finalW[i])
			if postShift > 0 {
				wide := int64(v) << uint(postShift)
				if wide > int64(fixed.One) {
					v = fixed.One
				} else if wide < int64(fixed.MinusOne) {
					v = fixed.MinusOne
				} else {
					v = fixed.Q15(wide)
				}
			}
			bq := shiftBiasValue(fixed.Q15(bW[int(filterOf[i])]), q.Shift)
			dstW[i] = int64(fixed.Add(v, bq))
		}
	}, func(i int) {
		f := int(filterOf[i])
		v := fixed.Q15(dev.Load(final, i))
		if postShift > 0 {
			dev.Op(mcu.OpAdd)
			wide := int64(v) << uint(postShift)
			if wide > int64(fixed.One) {
				v = fixed.One
			} else if wide < int64(fixed.MinusOne) {
				v = fixed.MinusOne
			} else {
				v = fixed.Q15(wide)
			}
		}
		bq := shiftBias(dev, fixed.Q15(dev.Load(l.B, f)), q.Shift)
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, i, int64(fixed.Add(v, bq)))
	})
}
