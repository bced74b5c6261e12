// Package tails implements TAILS (§7), the hardware-accelerated variant of
// SONIC: the same loop-continuation runtime, with convolutions and dense
// fully-connected layers executed on the LEA vector accelerator via DMA.
//
// TAILS inherits LEA's real limitations, all of which the device model
// enforces or charges for:
//
//   - LEA only reads the 4 KB SRAM bank, so every operand is DMA'd in and
//     every result DMA'd out;
//   - LEA's FIR convolution saturates each output to Q15 at its own fixed
//     scale, so activations are pre-shifted in software before invocation
//     (LEA has no left shift), which is TAILS's dominant control overhead
//     (§9.2) and makes conv results approximate rather than bit-identical
//     to the software runtimes;
//   - dense matrix-vector products use LEA's wide MAC accumulator and are
//     bit-identical to the host reference;
//   - sparse fully-connected layers run in software exactly like SONIC;
//   - a one-time calibration (§7.1) halves the DMA/LEA tile size after
//     each power failure until a whole tile completes within the energy
//     buffer, and persists the result in FRAM.
package tails

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/kern"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
)

// TAILS is the accelerated runtime. The Software* flags emulate the
// corresponding hardware in software — the ablation of §9.1 ("LEA
// consistently improved performance by 1.4×, DMA by 14%").
type TAILS struct {
	SoftwareLEA bool // compute vector ops with CPU MACs instead of LEA
	SoftwareDMA bool // move blocks with CPU load/store instead of DMA
}

// Name identifies the runtime.
func (t TAILS) Name() string {
	switch {
	case t.SoftwareLEA && t.SoftwareDMA:
		return "tails-sw"
	case t.SoftwareLEA:
		return "tails-noLEA"
	case t.SoftwareDMA:
		return "tails-noDMA"
	}
	return "tails"
}

// Calibration slots in the image's persistent Cal region.
const (
	calTile  = 0 // calibrated tile size in words (0 = uncalibrated)
	calTrial = 1 // candidate being trialled (0 = none in progress)
)

// Control-block slots used by TAILS's dense kernel (SONIC's cursor and
// sparse undo-log state occupy slots 0-2).
const (
	slotDensePartialA = 4
	slotDensePartialB = 5
)

// Tile bounds: the hardware maximum is set by the scratch layout below —
// the accumulate leg stages a tile of FIR outputs and a tile of partials in
// the out-scratch simultaneously, so a tile is at most half of it.
// Calibration halves down to minTile (a minTile trial costs well under any
// modelled buffer).
const (
	hwMaxTile = outWords / 2
	minTile   = 8
)

// scratch is the SRAM working set: an input window, an output/accumulate
// area, and a coefficient strip. Together they fill the 4 KB LEA bank.
type scratch struct {
	in   *mem.Region // 1024 words
	out  *mem.Region // 896 words
	coef *mem.Region // 128 words
}

const (
	inWords   = 1024
	outWords  = 896
	coefWords = 128
)

// Infer runs one inference, calibrating the tile size first if this image
// has never run on this device.
func (t TAILS) Infer(img *core.Image, input []fixed.Q15) ([]fixed.Q15, error) {
	if err := img.LoadInput(input); err != nil {
		return nil, err
	}
	return t.ResumeInfer(img, nil)
}

// ResumeInfer implements core.Resumer: Infer minus LoadInput, with an
// optional pre-attempt hook for restoring a forked prefix. The SRAM
// scratch allocations precede the restore, which clears their contents the
// same way the modelled reboot does.
func (t TAILS) ResumeInfer(img *core.Image, atReboot func() error) ([]fixed.Q15, error) {
	dev := img.Dev
	sc := &scratch{}
	var err error
	if sc.in, err = dev.SRAM.Alloc("lea.in", inWords, 2); err != nil {
		return nil, fmt.Errorf("tails: %w", err)
	}
	defer dev.SRAM.Release(sc.in)
	if sc.out, err = dev.SRAM.Alloc("lea.out", outWords, 2); err != nil {
		return nil, fmt.Errorf("tails: %w", err)
	}
	defer dev.SRAM.Release(sc.out)
	if sc.coef, err = dev.SRAM.Alloc("lea.coef", coefWords, 2); err != nil {
		return nil, fmt.Errorf("tails: %w", err)
	}
	defer dev.SRAM.Release(sc.coef)

	s := &sonic.Exec{Img: img, Dev: dev}
	dev.Emit(mcu.TraceRunBegin, t.Name(), 0)
	if atReboot != nil {
		if err := atReboot(); err != nil {
			return nil, err
		}
	}
	layerFn := t.layerFn(sc)
	if err := dev.Run(func() {
		s.ResetVolatile()
		t.calibrate(s, sc)
		s.Run(layerFn)
	}); err != nil {
		return nil, err
	}
	dev.FlushTrace()
	return img.ReadOutput(sonic.FinalParity(img.Model)), nil
}

// CalibratedTile reports the persisted tile size (0 before first run).
func CalibratedTile(img *core.Image) int { return int(img.Cal.Get(calTile)) }

// calibrate runs the one-time recursive tile calibration (§7.1): trial a
// DMA-in / FIR / DMA-out round trip at the candidate size; a power failure
// during the trial re-enters calibrate, which halves the candidate.
func (t TAILS) calibrate(s *sonic.Exec, sc *scratch) {
	dev := s.Dev
	img := s.Img
	dev.SetSection("other", mcu.PhaseControl)
	if dev.Load(img.Cal, calTile) != 0 {
		return // already calibrated on this device
	}
	// The trial stages through the activation buffer, so the starting
	// candidate is bounded by both the LEA bank and the image's buffers.
	maxCand := hwMaxTile
	if img.MaxActWords < maxCand {
		maxCand = img.MaxActWords
	}
	cand := int(dev.Load(img.Cal, calTrial))
	if cand == 0 {
		cand = maxCand
	} else {
		cand /= 2 // previous trial died: halve
		if cand < minTile {
			cand = minTile
		}
	}
	dev.Emit(mcu.TraceCalibrate, "trial", int64(cand))
	dev.Store(img.Cal, calTrial, int64(cand))
	dev.Progress()

	// Trial: run one worst-case accelerated chunk — coefficient DMA, input
	// DMA, software pre-shift, FIR, partial-accumulate DMA and vector add,
	// and result DMA — so the calibrated tile is valid for the most
	// expensive unit inference will execute. Stages through activation
	// buffer A; inference has not started, and every runtime initializes
	// its working buffers before reading them.
	const taps = 16 // conservative upper bound on kernel width
	outN := cand
	if outN+taps-1 > img.MaxActWords {
		outN = img.MaxActWords - taps + 1
	}
	if outN < 1 {
		outN = 1
	}
	dest := img.AccA
	if dest == nil || dest.Len() < 2*outN {
		dest = img.ActB
	}
	t.blockIn(dev, sc.coef, 0, img.ActA, 0, taps)
	t.blockIn(dev, sc.in, 0, img.ActA, 0, outN+taps-1)
	preShiftRow(dev, sc.in, 0, outN+taps-1, 1)
	t.fir(dev, sc.out, 0, sc.in, 0, sc.coef, 0, taps, outN)
	// Stage the partial-accumulate operand from ActA rather than dest: the
	// DMA cost is identical, but the trial must never read words it later
	// writes — that read-modify-write of dest (however dead its data) is
	// exactly what the WAR consistency checker flags.
	t.blockIn(dev, sc.out, outN, img.ActA, 0, outN)
	t.addv(dev, sc.out, 0, sc.out, 0, sc.out, outN, outN)
	t.blockOut(dev, dest, 0, sc.out, 0, outN)

	dev.Emit(mcu.TraceCalibrate, "calibrated", int64(cand))
	dev.Store(img.Cal, calTile, int64(cand))
	dev.Store(img.Cal, calTrial, 0)
	dev.Progress()
}

// tile returns the calibrated tile size.
func tile(s *sonic.Exec) int {
	v := int(s.Dev.Load(s.Img.Cal, calTile))
	if v <= 0 {
		v = minTile
	}
	return v
}

// blockIn moves n words into SRAM: DMA, or CPU copy under SoftwareDMA.
func (t TAILS) blockIn(dev *mcu.Device, dst *mem.Region, dstOff int, src *mem.Region, srcOff, n int) {
	if t.SoftwareDMA {
		if n <= 0 {
			return
		}
		// Bulk CPU copy: loads then stores, same op multiset as the
		// interleaved scalar loop. The funded store prefix still leaves
		// the partial destination loop-ordered buffering tolerates.
		dev.LoadRange(src, srcOff, n)
		dev.StoreRange(dst, dstOff, src.ROWords()[srcOff:srcOff+n])
		return
	}
	dev.DMA(dst, dstOff, src, srcOff, n)
}

// blockOut moves n words out of SRAM.
func (t TAILS) blockOut(dev *mcu.Device, dst *mem.Region, dstOff int, src *mem.Region, srcOff, n int) {
	t.blockIn(dev, dst, dstOff, src, srcOff, n)
}

// fir runs a 1-D convolution on LEA, or in software under SoftwareLEA.
func (t TAILS) fir(dev *mcu.Device, out *mem.Region, outOff int, in *mem.Region, inOff int,
	coef *mem.Region, coefOff, coefN, outN int) {
	if !t.SoftwareLEA {
		dev.LEAFIR(out, outOff, in, inOff, coef, coefOff, coefN, outN)
		return
	}
	// Bulk charge for the whole software FIR; all operands live in SRAM,
	// lost at brown-out, so the grouped charge order is unobservable.
	total := outN * coefN
	dev.Ops(mcu.OpBranch, total)
	dev.Ops(mcu.OpFixedMul, total)
	dev.Ops(mcu.OpFixedAdd, total)
	dev.Ops(mcu.OpLoadSRAM, 2*total)
	dev.Ops(mcu.OpStoreSRAM, outN)
	if !out.Observed() {
		kern.FIR(out.Words(), in.ROWords(), coef.ROWords(), outOff, inOff, coefOff, coefN, outN)
		return
	}
	for i := 0; i < outN; i++ {
		var acc fixed.Acc
		for k := 0; k < coefN; k++ {
			acc = acc.MAC(fixed.Q15(coef.Get(coefOff+k)), fixed.Q15(in.Get(inOff+i+k)))
		}
		out.Put(outOff+i, int64(acc.Sat()))
	}
}

// macv computes a dot product with a wide accumulator on LEA or in software.
func (t TAILS) macv(dev *mcu.Device, x *mem.Region, xOff int, y *mem.Region, yOff, n int) fixed.Acc {
	if !t.SoftwareLEA {
		return dev.LEAMacV(x, xOff, y, yOff, n)
	}
	dev.Ops(mcu.OpBranch, n)
	dev.Ops(mcu.OpFixedMul, n)
	dev.Ops(mcu.OpFixedAdd, n)
	dev.Ops(mcu.OpLoadSRAM, 2*n)
	return fixed.Acc(kern.DotQ15(x.ROWords(), y.ROWords(), xOff, yOff, n))
}

// addv saturating-adds n Q15 elements (dst = a + b) on LEA or in software.
func (t TAILS) addv(dev *mcu.Device, dst *mem.Region, dstOff int, a *mem.Region, aOff int,
	b *mem.Region, bOff, n int) {
	if !t.SoftwareLEA {
		dev.LEAAddV(dst, dstOff, a, aOff, b, bOff, n)
		return
	}
	dev.Ops(mcu.OpFixedAdd, n)
	dev.Ops(mcu.OpLoadSRAM, 2*n)
	dev.Ops(mcu.OpStoreSRAM, n)
	if !dst.Observed() {
		kern.AddSatV(dst.Words(), a.ROWords(), b.ROWords(), dstOff, aOff, bOff, n)
		return
	}
	for i := 0; i < n; i++ {
		s := fixed.Add(fixed.Q15(a.Get(aOff+i)), fixed.Q15(b.Get(bOff+i)))
		dst.Put(dstOff+i, int64(s))
	}
}

// preShiftRow arithmetic-right-shifts a row of SRAM words in place — the
// software rescale LEA cannot do, charged per element (§9.2: "these shifts
// account for most of the control time").
func preShiftRow(dev *mcu.Device, r *mem.Region, off, n, sh int) {
	if sh <= 0 {
		return
	}
	dev.Ops(mcu.OpLoadSRAM, n)
	dev.Ops(mcu.OpAdd, n) // shift sequence
	dev.Ops(mcu.OpStoreSRAM, n)
	if !r.Observed() {
		kern.ShiftRight(r.Words(), off, n, sh)
		return
	}
	for i := 0; i < n; i++ {
		r.Put(off+i, r.Get(off+i)>>uint(sh))
	}
}

// shiftBias rescales a Q15 bias (at scale in+w) into the layer's final
// output scale, charging software shift ops.
func shiftBias(dev *mcu.Device, b fixed.Q15, shift int) fixed.Q15 {
	dev.Op(mcu.OpAdd)
	return shiftBiasValue(b, shift)
}

// shiftBiasValue is shiftBias's value computation, shared with the fused
// finalize span (which charges the shift through its block).
func shiftBiasValue(b fixed.Q15, shift int) fixed.Q15 {
	if shift >= 0 {
		return b >> uint(shift)
	}
	// Left shift with saturation (done in software; LEA cannot).
	v := int64(b) << uint(-shift)
	if v > int64(fixed.One) {
		return fixed.One
	}
	if v < int64(fixed.MinusOne) {
		return fixed.MinusOne
	}
	return fixed.Q15(v)
}

// denseLayer computes a dense fully-connected layer with LEA vector MACs.
// Loop continuation runs at (output, chunk) granularity: each iteration
// DMAs one calibrated chunk of the weight row and input into SRAM, MACs it
// with the wide accumulator, and folds it into a double-buffered partial in
// the control block (parity = chunk index), so even rows much longer than
// the energy buffer make progress. Because the accumulator is wide and
// chunks are summed in order, results are bit-identical to the host
// reference.
func (t TAILS) denseLayer(s *sonic.Exec, sc *scratch, l *core.LayerImage, name string,
	src, dst *mem.Region, start sonic.Cursor) {
	q := l.Q
	dev := s.Dev
	img := s.Img
	chunk := tile(s)
	if chunk > hwMaxTile {
		chunk = hwMaxTile
	}
	chunks := (q.In + chunk - 1) / chunk

	// Double-buffered wide partial for the in-flight output row.
	partialSlot := func(ck int) int { return slotDensePartialA + (ck & 1) }

	for o := start.Pos; o < q.Out; o++ {
		ckStart := 0
		if o == start.Pos {
			ckStart = start.I
		}
		for ck := ckStart; ck < chunks; ck++ {
			c0 := ck * chunk
			n := chunk
			if c0+n > q.In {
				n = q.In - c0
			}
			dev.SetSection(name, mcu.PhaseControl)
			t.blockIn(dev, sc.in, 0, l.W, o*q.In+c0, n)
			t.blockIn(dev, sc.out, 0, src, c0, n)
			var partial fixed.Acc
			if ck > 0 {
				partial = fixed.Acc(dev.Load(img.Ctl, partialSlot(ck-1)))
			}
			dev.SetSection(name, mcu.PhaseKernel)
			partial += t.macv(dev, sc.in, 0, sc.out, 0, n)
			dev.SetSection(name, mcu.PhaseControl)
			dev.Store(img.Ctl, partialSlot(ck), int64(partial))
			s.Checkpoint(sonic.Cursor{Layer: start.Layer, Pos: o, I: ck + 1})
		}
		// Finalize output o from the last chunk's partial. Idempotent:
		// re-execution re-reads the same partial and rewrites the same
		// value.
		dev.SetSection(name, mcu.PhaseControl)
		acc := fixed.Acc(dev.Load(img.Ctl, partialSlot(chunks-1)))
		bq := fixed.Q15(dev.Load(l.B, o))
		dev.Op(mcu.OpFixedAdd)
		dev.Store(dst, o, int64(acc.AddQ(bq).SatShiftSigned(q.Shift)))
		s.Checkpoint(sonic.Cursor{Layer: start.Layer, Pos: o + 1})
	}
}
