package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/intermittest"
)

// warCampaignGolden is the sha256 of the canonical JSON report of
// `fuzz -war -seed 1`: every runtime plus both negative controls, every
// boundary verdict, DNC and WAR record. It was captured before the
// interpreted layer walk was deleted, and both that walk and the op tape
// reproduced it. It must never be regenerated to make a change pass.
const warCampaignGolden = "3ce3e96ee6c95b43f8c50808f5c02ecf8252bb1c5f828f5f18ae92a4ce9bde84"

// TestWARCampaignGolden runs the campaign CI runs as `fuzz -war -seed 1`
// and checks its full report against warCampaignGolden.
func TestWARCampaignGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("campaign golden is pinned on amd64, not %s", runtime.GOARCH)
	}
	qm, x := intermittest.TinyModel(1)
	rep, err := intermittest.Campaign(qm, x, runtimesByName("all"), intermittest.Options{Seed: 1, CheckWAR: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != warCampaignGolden {
		t.Fatalf("campaign report digest = %s, want %s (campaign verdicts changed)\n%s", got, warCampaignGolden, rep)
	}
}
