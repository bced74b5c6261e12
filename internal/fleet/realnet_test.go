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
// convs, LEA tiles, pooling) through the same Spec cross-product. CI runs
// this as the real-network fleet smoke.
func TestFleetRealNetworks(t *testing.T) {
	models, names := realModels(t)
	// Two full model × runtime × power cross-products.
	spec := realSpec(names, 36, rf100uF, contPower)
	r, err := fleet.Run(context.Background(), spec, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Done != spec.Devices {
		t.Fatalf("swept %d of %d devices", r.Done, spec.Devices)
	}
	if r.Agg.Summary().Completed == 0 {
		t.Fatal("no device completed an inference on the real networks")
	}
}

// servedGridGolden is the sha256 of a served-grid campaign's result (see
// gridDigest): quick seed-1 mnist/har/okg × {tile-32, sonic, tails} ×
// {rf-100uF, solar-100uF at 5 mW, cont}, 54 devices. It was captured from
// the layer walk that predated the op tape, at 1 and 2 workers, and must
// never be regenerated to make a change pass: a mismatch means campaign
// results changed.
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
// served grid must reproduce the digest captured before the op tape
// became the only executor, at 1 and 2 workers. CI greps for every
// subtest's PASS line under -race.
func TestServedGridGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The quick-mode models are trained in float64, and Go fuses
		// x*y+z into FMA on other architectures, so the weights — and
		// everything the devices compute from them — differ there.
		t.Skipf("served-grid golden is pinned on amd64, not %s", runtime.GOARCH)
	}
	models, names := realModels(t)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("tape-workers-%d", workers), func(t *testing.T) {
			r, err := fleet.Run(context.Background(), servedGridSpec(names), models, workers)
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

// interpretedAllocsPerDevice is TestServedGridAllocs's bound: allocations
// per device of the served grid on the layer walk that predated the op
// tape, measured before that walk was deleted (106.2–106.3 over repeated
// runs, amd64, go1.24). The tape must not allocate more.
const interpretedAllocsPerDevice = 106.3

// TestServedGridAllocs is the allocation guard for served campaigns: per
// device, the served grid must allocate no more than the deleted layer
// walk did. The tape's charge profiles and segment trains are built once
// per inference, not once per reboot, so its allocations do not grow with
// a device's reboots.
func TestServedGridAllocs(t *testing.T) {
	models, names := realModels(t)
	spec := servedGridSpec(names)
	perDevice := testing.AllocsPerRun(2, func() {
		if _, err := fleet.Run(context.Background(), spec, models, 1); err != nil {
			t.Fatal(err)
		}
	}) / float64(spec.Devices)
	t.Logf("allocations per device: %.1f (bound %.1f)", perDevice, interpretedAllocsPerDevice)
	if perDevice > interpretedAllocsPerDevice {
		t.Fatalf("served grid allocates %.1f objects per device, more than the %.1f the deleted layer walk did", perDevice, interpretedAllocsPerDevice)
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
