package sonic_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/sonic"
)

// TestTapeAllocsIndependentOfReboots is the allocation guard for SONIC's
// host-side bookkeeping: charge profiles and the sparse
// segment train are built once per inference and reused across reboots,
// so an inference on okg at rf-100uF, which reboots dozens of times,
// allocates no more than the same inference on continuous power.
func TestTapeAllocsIndependentOfReboots(t *testing.T) {
	if testing.Short() {
		t.Skip("needs quick-mode GENESIS preparation of okg")
	}
	p, err := harness.Prepare("okg", harness.PrepareOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	input := p.Model.QuantizeInput(p.Input)
	measure := func(spec energy.SystemSpec) (allocs float64, reboots int) {
		power, err := spec.New(1)
		if err != nil {
			t.Fatal(err)
		}
		dev := mcu.New(power)
		img, err := core.Deploy(dev, p.Model)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(3, func() {
			power.Reset()
			dev.Reprovision(power)
			if _, err := (sonic.SONIC{}).Infer(img, input); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, dev.Stats().Reboots
	}
	contAllocs, _ := measure(energy.SystemSpec{Kind: "cont"})
	rfAllocs, reboots := measure(energy.SystemSpec{Kind: "const", CapFarads: 100e-6})
	t.Logf("allocations per inference: continuous %.0f, rf-100uF %.0f (%d reboots)", contAllocs, rfAllocs, reboots)
	if reboots < 10 {
		t.Fatalf("rf-100uF inference rebooted %d times; the guard needs an intermittent run", reboots)
	}
	if rfAllocs > contAllocs {
		t.Fatalf("tape inference allocates %.0f objects at rf-100uF, more than the %.0f of its continuous-power run",
			rfAllocs, contAllocs)
	}
}
