package fleet_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/harness"
)

// realNets is the fleet registry of the paper's three evaluation networks
// (MNIST, HAR, OkGoogle; quick mode, seed 1), prepared once per test
// binary. Campaigns only read models, so every test shares it.
var realNets struct {
	once   sync.Once
	models map[string]fleet.Model
	names  []string
	err    error
}

// realModels returns the shared registry and its model names in harness
// order, skipping under -short.
func realModels(t *testing.T) (map[string]fleet.Model, []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("real-network fleet tests need quick-mode GENESIS preparation")
	}
	realNets.once.Do(func() {
		prepped, err := harness.PrepareAll(harness.PrepareOptions{Seed: 1, Quick: true})
		if err != nil {
			realNets.err = err
			return
		}
		realNets.models = make(map[string]fleet.Model, len(prepped))
		for _, p := range prepped {
			realNets.models[p.Net] = fleet.Model{Net: p.Net, QM: p.Model, Input: p.Model.QuantizeInput(p.Input)}
			realNets.names = append(realNets.names, p.Net)
		}
	})
	if realNets.err != nil {
		t.Fatal(realNets.err)
	}
	return realNets.models, realNets.names
}

// realSpec is the real-network campaign the oracles below sweep: every
// network under tiled Alpaca, SONIC and TAILS, on the given power classes,
// devices long.
func realSpec(names []string, devices int, powers ...fleet.PowerClass) fleet.Spec {
	return fleet.Spec{
		Devices:  devices,
		Seed:     1,
		Models:   names,
		Runtimes: []string{"tile-32", "sonic", "tails"},
		Powers:   powers,
	}
}

var (
	rf100uF    = fleet.PowerClass{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}}
	solar100uF = fleet.PowerClass{Name: "solar-100uF", SystemSpec: energy.SystemSpec{Kind: "solar", CapFarads: 100e-6, Watts: 5e-3}}
	contPower  = fleet.PowerClass{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}}
)

// TestFleetRealNetworks sweeps a small fleet over the paper's three
// evaluation networks instead of the synthetic tiny model the other fleet
// tests use: the campaign engine must handle real layer mixes (sparse
// convs, LEA tiles, pooling) through the same Spec cross-product, and the
// default op-tape campaign must reproduce the interpreted campaign's
// aggregates bit-for-bit on them. CI runs this as the real-network fleet
// smoke.
func TestFleetRealNetworks(t *testing.T) {
	models, names := realModels(t)
	// Two full model × runtime × power cross-products.
	spec := realSpec(names, 36, rf100uF, contPower)
	interpSpec := spec
	interpSpec.Interpreted = true
	interp, err := fleet.Run(context.Background(), interpSpec, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if interp.Done != spec.Devices {
		t.Fatalf("swept %d of %d devices", interp.Done, spec.Devices)
	}
	sum := interp.Agg.Summary()
	if sum.Completed == 0 {
		t.Fatal("no device completed an inference on the real networks")
	}

	tape, err := fleet.Run(context.Background(), spec, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tape.Agg.Summary(), sum) {
		a, _ := json.Marshal(sum)
		b, _ := json.Marshal(tape.Agg.Summary())
		t.Fatalf("tape fleet aggregates diverge on real networks:\ninterp %s\ntape   %s", a, b)
	}
	if !reflect.DeepEqual(tape.Agg.IMpJ.Centroids(), interp.Agg.IMpJ.Centroids()) ||
		!reflect.DeepEqual(tape.Agg.RebootHist.Counts(), interp.Agg.RebootHist.Counts()) {
		t.Fatal("tape fleet sketches/histograms diverge on real networks")
	}
}

// servedGridGolden is the sha256 of a served-grid campaign's result (see
// gridDigest): quick seed-1 mnist/har/okg × {tile-32, sonic, tails} ×
// {rf-100uF, solar-100uF at 5 mW, cont}, 54 devices. It was captured from
// the interpreted walk, at 1 and 2 workers, before campaigns switched to
// the op tape by default, and must never be regenerated to make a change
// pass: a mismatch means campaign results changed.
const servedGridGolden = "da73595955ed541dac7dbacd77dfe13292522ceb25892f6291732a060c8fdc5a"

// gridDigest hashes everything a campaign result determines: the Summary,
// both sketches' centroids and both histograms' bin counts.
func gridDigest(t *testing.T, r *fleet.Result) string {
	t.Helper()
	buf, err := json.Marshal(struct {
		Summary  fleet.Summary
		IMpJ     []fleet.Centroid
		FirstSec []fleet.Centroid
		Reboots  []int64
		Wasted   []int64
	}{r.Agg.Summary(), r.Agg.IMpJ.Centroids(), r.Agg.FirstSec.Centroids(), r.Agg.RebootHist.Counts(), r.Agg.WastedHist.Counts()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// servedGridSpec is the campaign servedGridGolden pins: the model,
// runtime and power classes served jobs sweep, twice over.
func servedGridSpec(names []string) fleet.Spec {
	return realSpec(names, 54, rf100uF, solar100uF, contPower)
}

// TestServedGridGolden is the executor oracle for served campaigns: the
// default (op-tape) campaign and the Interpreted campaign must both
// reproduce the digest captured before the default changed, at 1 and 2
// workers. CI greps for every subtest's PASS line under -race.
func TestServedGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The quick-mode models are trained in float64, and Go fuses
		// x*y+z into FMA on other architectures, so the weights — and
		// everything the devices compute from them — differ there.
		t.Skipf("served-grid golden is pinned on amd64, not %s", runtime.GOARCH)
	}
	models, names := realModels(t)
	for _, ex := range []struct {
		name        string
		interpreted bool
	}{{"tape", false}, {"interpreted", true}} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s-workers-%d", ex.name, workers), func(t *testing.T) {
				spec := servedGridSpec(names)
				spec.Interpreted = ex.interpreted
				r, err := fleet.Run(context.Background(), spec, models, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := gridDigest(t, r); got != servedGridGolden {
					b, _ := json.Marshal(r.Agg.Summary())
					t.Fatalf("served-grid digest = %s, want %s (campaign results changed)\nsummary %s", got, servedGridGolden, b)
				}
			})
		}
	}
}

// TestServedGridAllocs is the allocation guard for the default executor:
// per device, the op-tape campaign of the served grid must allocate no
// more than the same campaign on the interpreted walk. The tape's charge
// profiles and segment trains are built once per inference, not once per
// reboot, so its allocations do not grow with a device's reboots.
func TestServedGridAllocs(t *testing.T) {
	models, names := realModels(t)
	perDevice := func(spec fleet.Spec) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := fleet.Run(context.Background(), spec, models, 1); err != nil {
				t.Fatal(err)
			}
		}) / float64(spec.Devices)
	}
	spec := servedGridSpec(names)
	interp := spec
	interp.Interpreted = true
	tapeAllocs, interpAllocs := perDevice(spec), perDevice(interp)
	t.Logf("allocations per device: tape %.1f, interpreted %.1f", tapeAllocs, interpAllocs)
	if tapeAllocs > interpAllocs {
		t.Fatalf("tape campaign allocates %.1f objects per device, more than the interpreted walk's %.1f", tapeAllocs, interpAllocs)
	}
}

// TestProvisionedFleetBitIdentical is the provisioned-≡-fresh acceptance
// oracle on the paper's real networks: a campaign whose every device pays
// a full fresh deploy (Spec.Fresh) and the default campaign — devices
// provisioned by COW restore-in-place into per-worker pools — must
// produce bit-identical results at every worker count, down to sketch
// centroids and histogram bins. CI greps for the per-worker-count subtest
// PASS lines under -race.
func TestProvisionedFleetBitIdentical(t *testing.T) {
	models, names := realModels(t)
	// Two full model × runtime × power cross-products.
	spec := realSpec(names, 36, rf100uF, contPower)
	type print struct {
		Summary  fleet.Summary
		IMpJ     []fleet.Centroid
		FirstSec []fleet.Centroid
		Reboots  []int64
		Wasted   []int64
		Done     int
		EnergyPJ int64
	}
	printOf := func(r *fleet.Result) print {
		return print{
			Summary:  r.Agg.Summary(),
			IMpJ:     r.Agg.IMpJ.Centroids(),
			FirstSec: r.Agg.FirstSec.Centroids(),
			Reboots:  r.Agg.RebootHist.Counts(),
			Wasted:   r.Agg.WastedHist.Counts(),
			Done:     r.Done,
			EnergyPJ: r.Agg.EnergyPJ,
		}
	}

	freshSpec := spec
	freshSpec.Fresh = true
	base, err := fleet.Run(context.Background(), freshSpec, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Agg.Summary().Completed == 0 {
		t.Fatal("degenerate fresh baseline: no device completed")
	}
	want := printOf(base)

	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		name := "workers-max"
		if workers <= 4 {
			name = fmt.Sprintf("workers-%d", workers)
		}
		t.Run(name, func(t *testing.T) {
			r, err := fleet.Run(context.Background(), spec, models, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := printOf(r); !reflect.DeepEqual(got, want) {
				a, _ := json.Marshal(want.Summary)
				b, _ := json.Marshal(got.Summary)
				t.Fatalf("provisioned fleet (workers=%d) diverges from fresh:\nfresh       %s\nprovisioned %s", workers, a, b)
			}
			if p := r.Provision; p.Restores != int64(spec.Devices) || p.FreshDeploys != 0 || p.Prototypes != int64(len(names)) {
				t.Fatalf("provisioning counters off: %+v", r.Provision)
			}
		})
	}
}
