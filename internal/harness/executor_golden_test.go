package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand/v2"
	"runtime"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// executorGolden and fig9Golden pin what every runtime computes. They were
// captured before the interpreted layer walk was deleted, and at capture
// each digest was reproduced by both that walk and the op tape, so they
// stand in for the differential oracle that compared the two executors.
// They must never be regenerated to make a change pass: a mismatch means
// simulation results changed.
var executorGolden = map[string]string{
	"base":     "ae6a4db11e26f1fb111fd0c661f734090da3b14bffbd6a9ba4fe622ec5d90d42",
	"tile-8":   "45383671a58186114829e7a6fc75c0e471d91ebd9c0e7b2c56a309231383d05b",
	"tile-32":  "7ba863fc8e0e1d0fa6c8e6567f7eb677ab613906f3955111f2f8f48ce78ffd87",
	"tile-128": "e08c6269f8e600e2f06002e3c1ead0f70cf790bbd9e562b1b5daf8fd67e7d0a1",
	"sonic":    "b6737f9bc1fa2813596d807bec9a3eb17a6d364857655e6feca8cb8a18c678a9",
	"tails":    "d472eb1595b2af16301b61632f84df2be16b3edb2a96e905589fd33246529bd4",
	"ckpt-8":   "9291a40526d702d8c8922f24668dade9e39c0fd0811261e72c8c7a5e4259ca9c",
}

var fig9Golden = map[string]string{
	"mnist": "dae37a0a4f327ddbf0be7e46762fcf512f1b712e97aac32fa9f301545ee1f3a2",
	"har":   "839e69691c9f8a78866d309bf292436977aede5b0c8e4c812b7fb18f491d5698",
	"okg":   "20a244fafc9b09caa12e065b3684c9595291314b0882c64074cb4898566670ef",
}

// allRuntimes returns the seven runtimes the simulation oracles cover: the
// six Fig. 9 implementations and the checkpointing baseline.
func allRuntimes() []core.Runtime {
	return []core.Runtime{
		baseline.Base{},
		baseline.Tile{TileSize: 8},
		baseline.Tile{TileSize: 32},
		baseline.Tile{TileSize: 128},
		sonic.SONIC{},
		tails.TAILS{},
		checkpoint.Checkpoint{Interval: 8},
	}
}

// TestExecutorGolden hashes, for every runtime on TinyModel(1), everything
// a run makes observable — logits, completion outcome, the full device
// Stats (per-section stats included), reboot count and WAR records —
// under continuous power on the bulk and the forced-scalar charging paths,
// and under 30 fuzzed brown-out schedules with a tail of tight gaps that
// maximizes mid-kernel reboot coverage, against executorGolden. CI greps
// for each runtime's PASS line and rejects skips.
func TestExecutorGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Pinned like the served-grid golden: the digests were captured
		// on amd64, where Go does not fuse x*y+z into FMA.
		t.Skipf("executor goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	const fuzzedSchedules = 30
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	for _, rt := range allRuntimes() {
		t.Run(rt.Name(), func(t *testing.T) {
			h := sha256.New()
			cont := diffRun(t, qm, qin, rt, energy.Continuous{}, false)
			writeObservation(t, h, "cont", cont)
			writeObservation(t, h, "cont-scalar", diffRun(t, qm, qin, rt, energy.Continuous{}, true))

			// Fuzzed schedules above the runtime's liveness floor (same
			// shape as TestBulkScalarDifferential).
			totalOps := int64(0)
			for _, n := range cont.Stats.OpCount {
				totalOps += n
			}
			floor := int(2*cont.Stats.MaxRegionOps) + 50
			rng := rand.New(rand.NewPCG(0x7a9e, uint64(totalOps)))
			for s := 0; s < fuzzedSchedules; s++ {
				gaps := make([]int, 1+rng.IntN(4))
				for i := range gaps {
					gaps[i] = floor + rng.IntN(int(totalOps))
				}
				if s%5 == 4 {
					for i := range gaps {
						gaps[i] = floor + rng.IntN(floor)
					}
				}
				label := fmt.Sprintf("sched%02d%v", s, gaps)
				writeObservation(t, h, label, diffRun(t, qm, qin, rt, energy.NewFailSchedule(gaps), false))
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), executorGolden[rt.Name()]; got != want {
				t.Errorf("%s executor digest = %s, want %s (simulation results changed)", rt.Name(), got, want)
			}
		})
	}
}

// TestFig9Golden hashes every RunAll cell — six runtimes × every Powers()
// entry — of quick seed-1 preparation of each network against fig9Golden.
func TestFig9Golden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Quick-mode models are trained in float64; see TestColdPathGolden.
		t.Skipf("Fig. 9 goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("Fig. 9 goldens need quick-mode GENESIS preparation")
	}
	var prepped []*Prepared
	for _, net := range Networks() {
		prepped = append(prepped, prepQuick(t, net))
	}
	ev, err := RunAll(prepped)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(Networks()) * len(Runtimes()) * len(Powers()); len(ev.Results) != want {
		t.Fatalf("RunAll returned %d cells, want %d", len(ev.Results), want)
	}
	for _, net := range Networks() {
		t.Run(net, func(t *testing.T) {
			h := sha256.New()
			for _, r := range ev.Results {
				if r.Net != net {
					continue
				}
				// The outer Sections shadows the cell's map, which JSON
				// cannot encode, with its sorted rows.
				writeJSON(t, h, struct {
					RunResult
					Sections []sectionRow
				}{r, canonicalSections(r.Sections)})
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), fig9Golden[net]; got != want {
				t.Errorf("%s Fig. 9 digest = %s, want %s (figure results changed)", net, got, want)
			}
		})
	}
}

// sectionRow is one per-section stats entry in canonical (sorted) form.
type sectionRow struct {
	Layer string
	Phase mcu.Phase
	Stats mcu.SectionStats
}

// canonicalSections flattens a Sections map into rows sorted by layer,
// then phase.
func canonicalSections(m map[mcu.Section]*mcu.SectionStats) []sectionRow {
	rows := make([]sectionRow, 0, len(m))
	for s, st := range m {
		rows = append(rows, sectionRow{s.Layer, s.Phase, *st})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Layer != rows[j].Layer {
			return rows[i].Layer < rows[j].Layer
		}
		return rows[i].Phase < rows[j].Phase
	})
	return rows
}

// writeObservation feeds one labelled run's canonical JSON to h.
func writeObservation(t *testing.T, h hash.Hash, label string, o diffObservation) {
	t.Helper()
	type stats struct {
		mcu.Stats
		Sections []sectionRow
	}
	writeJSON(t, h, struct {
		Label    string
		Logits   []fixed.Q15
		DNC      bool
		Err      string
		Stats    stats
		WARCount int
		WARs     []mcu.WARViolation
	}{label, o.Logits, o.DNC, o.Err, stats{o.Stats, canonicalSections(o.Stats.Sections)}, o.WARCount, o.WARs})
}

// writeJSON feeds v's JSON encoding, newline-terminated, to h.
func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}
