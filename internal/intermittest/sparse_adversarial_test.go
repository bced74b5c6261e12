package intermittest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sonic"
	"repro/internal/tails"
)

// sparseAdversarialGolden pins each runtime's full sweep report (canonical
// JSON, sha256). The digests were captured before the interpreted layer
// walk was deleted, and both that walk and the op tape reproduced them; a
// mismatch means some brown-out placement changed its outcome.
var sparseAdversarialGolden = map[string]string{
	"base":     "a7a57214f874be7d37460b1de5ff9a6ed6808b149d96f7ef9be099a7edda2c85",
	"tile-8":   "49aa5e0c3c1b9bf7906d31a840eed1f7f8ec6e6ef070de5d5a840a09a179f829",
	"tile-32":  "e8809db3ab3b1c7718e4d3d9462a7ef98bea0abe932fd817d5a4f5aed359e325",
	"tile-128": "9c8d5f278bd93171321adf773e043513104d849719dba65a900ffb48ec3ebe9f",
	"sonic":    "19849f62dd6c19836fd0eee6e49a2d7cc164114f4426233ffa30863686df952f",
	"tails":    "1860bf747b28c5a35f6e033524f4bdbf74a0a51c94ac1e34be42f5c53f8633c0",
	"ckpt-8":   "a6cdc50e356f2fa05b9e496a7f2d361908b67d252cf87caa4bf4c663297649b9",
}

// TestSparseAdversarialCampaign sweeps a brown-out across every operation
// boundary of the adversarial CSR model — hitting every row boundary,
// every multi-row advance over empty rows, and every undo-log arm point
// (the rd > pos resume) of every row shape — for all seven runtimes, with
// the WAR shadow tracker armed. The fused row-span trains must survive
// every placement, and each runtime's report must match its golden
// digest; CI greps for each runtime's PASS line, so a skip or a dropped
// subtest fails the build.
func TestSparseAdversarialCampaign(t *testing.T) {
	qm, x := AdversarialCSRModel(1)
	for _, rt := range []core.Runtime{
		baseline.Base{},
		baseline.Tile{TileSize: 8},
		baseline.Tile{TileSize: 32},
		baseline.Tile{TileSize: 128},
		sonic.SONIC{},
		tails.TAILS{},
		checkpoint.Checkpoint{Interval: 8},
	} {
		name := rt.Name()
		t.Run(name, func(t *testing.T) {
			// The naive baseline is the negative control: it must fail
			// somewhere, proving the sweep has teeth on this model too.
			unsafe := rt.Name() == "base"
			rep, err := SweepRuntime(qm, x, rt, Options{CheckWAR: !unsafe})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Exhaustive || int64(rep.Swept) != rep.TotalOps {
				t.Fatalf("sweep not exhaustive: swept %d of %d", rep.Swept, rep.TotalOps)
			}
			if runtime.GOARCH == "amd64" { // pinned like TestServedGridGolden
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got, want := hex.EncodeToString(sum[:]), sparseAdversarialGolden[name]; got != want {
					t.Errorf("report digest = %s, want %s (sweep outcomes changed)", got, want)
				}
			}
			if unsafe {
				if len(rep.Mismatches) == 0 {
					t.Fatalf("negative control survived the sweep: %s", rep.Summary())
				}
				return
			}
			if !rep.Clean() {
				t.Errorf("NOT clean: %s", rep.Summary())
				for i, m := range rep.Mismatches {
					if i >= 5 {
						break
					}
					t.Logf("  %s", m)
				}
				for i, v := range rep.WARSample {
					if i >= 5 {
						break
					}
					t.Logf("  WAR %s[%d] layer=%s op=%d", v.Region, v.Index, v.Layer, v.Op)
				}
			}
		})
	}
}
