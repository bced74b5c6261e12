package sonic

import (
	"repro/internal/mcu"
)

// Fused execution of the loop-continuation kernels: each uniform inner
// loop's per-iteration charge profile is captured as an mcu.Block, the
// device funds a whole number of iterations in one call
// (mcu.ChargeBlock), and the data movement for exactly those iterations
// runs as one bulk loop over raw memory words (internal/kern). The
// first unfunded iteration — and every non-uniform iteration (resume
// points, CSR row advances, mid-checkpoint-period entries) — runs on the
// unchanged scalar path, so brown-outs land at the identical op index
// with identical partial energy consumption, and logits, Stats, reboot
// placement, and WAR records stay bit-exact (the fused differential
// oracle and TestExecutorGolden prove it per runtime).

// canFuse reports whether fused kernels may engage: the device allows it
// (no tracer, journal, or WAR shadow; devirtualized power) and no
// PutObserver is attached to FRAM, where all image state lives — an
// observer must see every store, which only the scalar path issues.
func (s *Exec) canFuse() bool {
	return s.Dev.CanFuse() && !s.Dev.FRAM.Observed()
}

// profSlot names one of a layer kernel's charge profiles.
type profSlot uint8

const (
	profFirst   profSlot = iota // first-generation (or only) inner loop
	profRest                    // later-generation inner loop
	profZero                    // sparse accumulator zeroing
	profRow                     // sparse iteration within one CSR row
	profFin                     // finalize pass
	profFinBias                 // conv finalize of a filter without partials
	numProfSlots
)

// layerProfiles memoises one layer's charge profiles: one per slot, plus
// the sparse walk's row-boundary iterations by rows advanced (advance[k]
// advances k+1 rows).
type layerProfiles struct {
	slot    [numProfSlots]*mcu.Block
	advance []*mcu.Block
}

// profile returns the memo cell of one of layer's profiles. The Exec
// lives across every reboot of one inference, and a profile depends only
// on the layer's section tokens, the device's cost table and the
// checkpoint policy, none of which a reboot changes; so each layer visit
// after the first reuses the blocks its first visit built. Building a
// block charges nothing, so memoising cannot move an op.
func (s *Exec) profile(layer int, slot profSlot) **mcu.Block {
	return &s.layerProfiles(layer).slot[slot]
}

// advanceProfile is profile for a sparse iteration that advances adv > 0
// rows. The cell is only valid until the next call.
func (s *Exec) advanceProfile(layer, adv int) **mcu.Block {
	lp := s.layerProfiles(layer)
	if len(lp.advance) < adv {
		grown := make([]*mcu.Block, 2*adv)
		copy(grown, lp.advance)
		lp.advance = grown
	}
	return &lp.advance[adv-1]
}

// layerProfiles returns layer's memo, allocating the Exec's on first use.
func (s *Exec) layerProfiles(layer int) *layerProfiles {
	if s.profiles == nil {
		s.profiles = make([]layerProfiles, len(s.Img.Layers))
	}
	return &s.profiles[layer]
}

// unitBlock returns the charge profile of one fused commit unit, with the
// unit's iteration count. The block is built from the per-iteration body
// ops into memo cell p when p is empty, and read from it after that.
//
// Under loop continuation (Every == 1) a unit is one iteration ending in
// a cursor store; under periodic checkpointing a unit is Every
// iterations, the first Every-1 charging only an index increment and the
// last the register/stack dump plus the cursor store.
func (s *Exec) unitBlock(p **mcu.Block, tokC mcu.SectionTok, body ...mcu.BlockOp) (*mcu.Block, int) {
	per := max(s.Every, 1)
	if *p != nil {
		return *p, per
	}
	ops := s.opBuf(len(body) + 3)
	for _, op := range body {
		op.N *= per
		ops = append(ops, op)
	}
	if per > 1 {
		ops = append(ops, mcu.BlockOp{Tok: tokC, Kind: mcu.OpIncrement, N: per - 1},
			mcu.BlockOp{Tok: tokC, Kind: mcu.OpStoreFRAM, N: s.RegWords})
	}
	*p = s.newBlock(append(ops, mcu.BlockOp{Tok: tokC, Kind: s.cursorKind(), N: 1}))
	return *p, per
}

// forceUnitBlock is unitBlock for one iteration that always commits
// through ForceCheckpoint (the sparse undo-logging loop): even
// checkpointing runtimes pay the register dump and cursor store on every
// iteration there.
func (s *Exec) forceUnitBlock(p **mcu.Block, tokC mcu.SectionTok, body ...mcu.BlockOp) *mcu.Block {
	if *p != nil {
		return *p
	}
	ops := append(s.opBuf(len(body)+2), body...)
	if s.Every > 1 {
		ops = append(ops, mcu.BlockOp{Tok: tokC, Kind: mcu.OpStoreFRAM, N: s.RegWords})
	}
	*p = s.newBlock(append(ops, mcu.BlockOp{Tok: tokC, Kind: s.cursorKind(), N: 1}))
	return *p
}

// Arena chunk sizes for an inference's charge profiles. A block has at
// most eight ops (five body ops, the periodic-checkpoint pair and the
// cursor store), so an op chunk holds at least a block chunk's worth.
const (
	blockChunk = 32
	opChunk    = 8 * blockChunk
)

// opBuf returns an empty op list with room for n ops. Blocks and their
// op lists are carved out of chunks, so all of an inference's profiles
// cost a few allocations rather than two each; a full chunk is replaced,
// never grown, so nothing handed out moves.
func (s *Exec) opBuf(n int) []mcu.BlockOp {
	if cap(s.opArena)-len(s.opArena) < n {
		s.opArena = make([]mcu.BlockOp, 0, opChunk)
	}
	i := len(s.opArena)
	s.opArena = s.opArena[:i+n]
	return s.opArena[i : i : i+n]
}

// newBlock builds the block for ops in the block arena.
func (s *Exec) newBlock(ops []mcu.BlockOp) *mcu.Block {
	if len(s.blockArena) == cap(s.blockArena) {
		s.blockArena = make([]mcu.Block, 0, blockChunk)
	}
	s.blockArena = append(s.blockArena, s.Dev.MakeBlock(ops...))
	return &s.blockArena[len(s.blockArena)-1]
}

// cursorKind is the op kind StoreIndex charges for the durable cursor.
func (s *Exec) cursorKind() mcu.OpKind {
	if s.Dev.JITIndexCheckpoint {
		return mcu.OpStoreSRAM
	}
	return mcu.OpStoreFRAM
}

// fuseIters funds as many whole commit units as fit in [i, n) and
// returns the funded iteration count (0 when the buffer cannot pay for
// one unit, or when a periodic-checkpoint loop is mid-period — the
// scalar path must reach the next durable commit first).
func (s *Exec) fuseIters(b *mcu.Block, per, i, n int) int {
	if per > 1 && s.sinceCk != 0 {
		return 0
	}
	units := (n - i) / per
	if units <= 0 {
		return 0
	}
	return s.Dev.ChargeBlock(b, units) * per
}

// fuseCommit makes the final fused cursor durable. The scalar path
// stores the cursor at every commit; only the last value survives, and
// with no journal, tracer, or observer attached the intermediate stores
// are unobservable, so one coalesced write leaves identical state.
func (s *Exec) fuseCommit(c Cursor) {
	s.Img.Ctl.Put(slotCursor, c.Pack())
	if s.Every > 1 {
		s.sinceCk = 0
	}
}

// FuseUnit is unitBlock for the finalize pass of runtimes layered on
// Exec (TAILS): it returns layer's memoised commit-unit charge profile
// when fusion may engage and a nil block (scalar-only) otherwise, so
// callers pass the result straight to FuseMapTok.
func (s *Exec) FuseUnit(layer int, tokC mcu.SectionTok, body ...mcu.BlockOp) (*mcu.Block, int) {
	if !s.canFuse() {
		return nil, 1
	}
	return s.unitBlock(s.profile(layer, profFin), tokC, body...)
}

// FuseMapTok is MapLayerTok with the fused fast path (fuseMap) exported
// for runtimes layered on Exec.
func (s *Exec) FuseMapTok(tokK, tokC mcu.SectionTok, blk *mcu.Block, per int, start Cursor, n int, span func(i0, m int), body func(i int)) {
	s.fuseMap(tokK, tokC, blk, per, start, n, span, body)
}

// fuseMap is MapLayerTok with a fused fast path: span(i0, m) performs m
// iterations' data movement in bulk after blk funds them; the remainder
// falls through to the scalar body. Pass blk == nil to force the scalar
// path (its op stream is identical to MapLayerTok's).
func (s *Exec) fuseMap(tokK, tokC mcu.SectionTok, blk *mcu.Block, per int, start Cursor, n int, span func(i0, m int), body func(i int)) {
	dev := s.Dev
	for i := start.I; i < n; {
		if blk != nil {
			if m := s.fuseIters(blk, per, i, n); m > 0 {
				span(i, m)
				i += m
				s.fuseCommit(Cursor{Layer: start.Layer, Pass: start.Pass, I: i})
				continue
			}
		}
		dev.SetSectionTok(tokK)
		dev.Op(mcu.OpBranch)
		body(i)
		dev.SetSectionTok(tokC)
		s.Checkpoint(Cursor{Layer: start.Layer, Pass: start.Pass, I: i + 1})
		i++
	}
}
