package baseline_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/mcu"
)

// parentTileAllocs is tile-32's allocations per okg inference before its
// task graph became a plan compiled once per model: 170 on continuous
// power and 171 at rf-100uF, where the per-inference pass closures and
// their k-word scratch slices were rebuilt on every inference.
const parentTileAllocs = 170

// TestTileAllocsIndependentOfReboots is the allocation guard for the tile
// runtime's host-side bookkeeping: the pass plan is compiled once per
// (model, tile size), and an inference builds its charge blocks and train
// once, so an inference on okg at rf-100uF, which reboots hundreds of
// times, allocates no more than the same inference on continuous power,
// and both allocate less than before the plan existed.
func TestTileAllocsIndependentOfReboots(t *testing.T) {
	if testing.Short() {
		t.Skip("needs quick-mode GENESIS preparation of okg")
	}
	p, err := harness.Prepare("okg", harness.PrepareOptions{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	input := p.Model.QuantizeInput(p.Input)
	rt := baseline.Tile{TileSize: 32}
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
		// Ten runs, so that a sync.Pool refill after a GC cycle does not
		// round up to a whole allocation per inference.
		allocs = testing.AllocsPerRun(10, func() {
			power.Reset()
			dev.Reprovision(power)
			if _, err := rt.Infer(img, input); err != nil {
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
		t.Fatalf("tile inference allocates %.0f objects at rf-100uF, more than the %.0f of its continuous-power run",
			rfAllocs, contAllocs)
	}
	if contAllocs >= parentTileAllocs {
		t.Fatalf("tile inference allocates %.0f objects on continuous power, not below the %d of the per-inference task graph",
			contAllocs, parentTileAllocs)
	}
}
