package mcu

import (
	"testing"

	"repro/internal/energy"
)

// TestOpsTotalMirrorsSectionCounts is the regression guard for the derived
// op accounting: the fast path maintains only per-section counts, and the
// opsTotal mirror (which journal records and WAR violation positions read)
// is resynced from them whenever a per-op observer attaches. At every
// observation point the invariant is
//
//	opsTotal == opsNow() == Σ_k Stats().OpCount[k]
//
// across scalar ops, bulk ChargeBlock/ChargeTrain charges, section
// switches, and observer attach/detach.
func TestOpsTotalMirrorsSectionCounts(t *testing.T) {
	dev := New(energy.Continuous{})
	tokA := dev.SectionToken("a", PhaseKernel)
	tokB := dev.SectionToken("b", PhaseControl)

	check := func(label string, wantMirror bool) {
		t.Helper()
		var sum int64
		for _, n := range dev.Stats().OpCount {
			sum += n
		}
		if now := dev.opsNow(); now != sum {
			t.Fatalf("%s: opsNow()=%d, Σ Stats.OpCount=%d", label, now, sum)
		}
		if wantMirror && dev.opsTotal != sum {
			t.Fatalf("%s: opsTotal=%d, Σ Stats.OpCount=%d", label, dev.opsTotal, sum)
		}
	}

	// Fast path: scalar ops and bulk charges with no observer attached.
	dev.SetSectionTok(tokA)
	for i := 0; i < 7; i++ {
		dev.Op(OpFixedMul)
	}
	blk := dev.MakeBlock(
		BlockOp{Tok: tokA, Kind: OpLoadFRAM, N: 2},
		BlockOp{Tok: tokB, Kind: OpStoreFRAM, N: 1})
	if m := dev.ChargeBlock(&blk, 5); m != 5 {
		t.Fatalf("ChargeBlock funded %d of 5", m)
	}
	blk2 := dev.MakeBlock(BlockOp{Tok: tokB, Kind: OpBranch, N: 3})
	if n := dev.ChargeTrain([]TrainSeg{{Blk: &blk, N: 2}, {Blk: &blk2, N: 4}}); n != 6 {
		t.Fatalf("ChargeTrain funded %d of 6", n)
	}
	check("fast path", false)

	// Journal attach resyncs the mirror from the section counts; the slow
	// path then maintains it incrementally.
	dev.StartJournal(0)
	check("journal attach", true)
	dev.SetSectionTok(tokB)
	for i := 0; i < 11; i++ {
		dev.Op(OpBranch)
	}
	dev.account(OpLoadFRAM, 4)
	check("journal ops", true)
	dev.StopJournal()

	// Back on the fast path, then the WAR shadow attach resyncs again
	// (violation records carry op positions read from the mirror).
	dev.Op(OpFixedAdd)
	check("fast again", false)
	dev.EnableWARCheck()
	check("war attach", true)
	dev.Op(OpStoreFRAM)
	check("war ops", true)
}
