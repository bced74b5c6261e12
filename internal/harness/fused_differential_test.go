package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/sonic"
	"repro/internal/trace"
)

// fusedObservation extends diffObservation with the device-native
// wasted-work figure, which the fused path must also reproduce bit-exactly
// (it commits once per funded span instead of once per op), and with the
// words of every FRAM region that survives the inference, which fused
// kernels write directly.
type fusedObservation struct {
	diffObservation
	WastedNJ float64
	FRAM     []regionWords
}

// regionWords is one FRAM region's contents.
type regionWords struct {
	Name  string
	Words []int64
}

// fusedRun executes one inference with fused kernels allowed (noFuse
// false) or pinned to the scalar path (noFuse true). Unlike diffRun it
// attaches no WAR shadow — a shadow tracker is one of the conditions that
// (correctly) disables fusion, so the fused path would never engage.
func fusedRun(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15,
	rt core.Runtime, power energy.System, noFuse bool) fusedObservation {
	t.Helper()
	dev := mcu.New(power)
	dev.NoFuse = noFuse
	dev.TrackWasted(true)
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	logits, ierr := rt.Infer(img, qin)
	obs := fusedObservation{
		diffObservation: diffObservation{
			Logits: logits,
			Stats:  *dev.Stats(),
		},
		WastedNJ: dev.WastedNJ(),
	}
	for i := 0; i < dev.FRAM.Regions(); i++ {
		r := dev.FRAM.RegionAt(i)
		obs.FRAM = append(obs.FRAM, regionWords{r.Name, slices.Clone(r.ROWords())})
	}
	if ierr != nil {
		if errors.Is(ierr, mcu.ErrDoesNotComplete) {
			obs.DNC = true
		} else {
			obs.Err = ierr.Error()
		}
	}
	return obs
}

// fusedPowers returns the power systems the fused oracle sweeps: the
// devirtualized kinds fusion engages on. Count-based fail schedules are
// deliberately absent — they are not bulk-fundable, so fusion never
// engages there (TestExecutorGolden already covers them on the scalar
// path).
func fusedPowers() []struct {
	name string
	mk   func() energy.System
} {
	return []struct {
		name string
		mk   func() energy.System
	}{
		{"cont", func() energy.System { return energy.Continuous{} }},
		{"rf-100uF", func() energy.System {
			return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
		}},
		{"rf-1mF", func() energy.System {
			return energy.NewIntermittent(energy.Cap1mF, energy.ConstantHarvester{Watts: 10e-3})
		}},
	}
}

// TestFusedScalarDifferential is the fused-kernel fast path's oracle: for
// every runtime, under continuous power and real
// capacitor/harvester brown-out cycles, a run with fused bulk kernels
// allowed must be bit-identical — logits, cycles, integer-picojoule
// energy, per-op counts, per-section stats, MaxRegionOps, reboot count,
// dead time, the wasted-work figure and the words of every FRAM region
// that survives the inference — to the same run with Device.NoFuse
// pinning the scalar op-by-op path.
//
// Each runtime also runs AdversarialCSRModel, whose empty rows and rows
// spanning several tiles stress the tiled runtimes' task profiles, and
// denseConvModel, whose unpruned filters take the first-element
// kernels. The tiled runtimes, which fund whole tasks, must reboot on
// TinyModel at rf-100uF, so that a fused train hands over to a scalar
// task that browns out.
//
// Like the bulk oracle, CI greps for each runtime's PASS lines and
// rejects skips.
func TestFusedScalarDifferential(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	csr, cx := intermittest.AdversarialCSRModel(1)
	cin := csr.QuantizeInput(cx)
	dc, dx := denseConvModel(t)
	din := dc.QuantizeInput(dx)

	for _, rt := range allRuntimes() {
		t.Run(rt.Name(), func(t *testing.T) {
			_, tiled := rt.(baseline.Tile)
			fusedOracle(t, qm, qin, rt, tiled)
			t.Run("adversarial-csr", func(t *testing.T) {
				fusedOracle(t, csr, cin, rt, false)
			})
			t.Run("dense-conv", func(t *testing.T) {
				fusedOracle(t, dc, din, rt, false)
			})
		})
	}
}

// denseConvModel builds a small net with two unpruned convolutions. The
// second starts each filter over the first one's stale partials, so a
// first-element kernel that read them would show, and its 12 output
// positions are fewer than tile-32's iterations, so its tasks
// re-privatize partials.
func denseConvModel(t *testing.T) (*dnn.QuantModel, []float64) {
	t.Helper()
	rng := rand.New(rand.NewPCG(3, 5))
	n := dnn.NewNetwork("dense-conv", dnn.Shape{1, 4, 8})
	n.Add(
		dnn.NewConv(rng, 2, 1, 2, 2), // -> 2x3x7
		dnn.NewReLU(),
		dnn.NewConv(rng, 2, 2, 2, 2), // -> 2x2x6
		dnn.NewFlatten(),
		dnn.NewDense(rng, 3, 24),
	)
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.Float64()*1.6 - 0.8
	}
	qm, err := dnn.Quantize(n, [][]float64{x})
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range []int{0, 2} {
		if qm.Layers[li].NZ != nil {
			t.Fatalf("dense-conv layer %d quantized with a nonzero list", li)
		}
	}
	return qm, x
}

// fusedOracle compares the fused and NoFuse runs of one inference under
// every fused power, requiring reboots at rf-100uF when wantReboots.
func fusedOracle(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15, rt core.Runtime, wantReboots bool) {
	t.Helper()
	for _, pw := range fusedPowers() {
		fused := fusedRun(t, qm, qin, rt, pw.mk(), false)
		scalar := fusedRun(t, qm, qin, rt, pw.mk(), true)
		diffCompare(t, pw.name, fused.diffObservation, scalar.diffObservation)
		if fused.WastedNJ != scalar.WastedNJ {
			t.Errorf("%s: WastedNJ diverges: fused=%v scalar=%v",
				pw.name, fused.WastedNJ, scalar.WastedNJ)
		}
		if !reflect.DeepEqual(fused.FRAM, scalar.FRAM) {
			for i := range min(len(fused.FRAM), len(scalar.FRAM)) {
				if f, s := fused.FRAM[i], scalar.FRAM[i]; !reflect.DeepEqual(f, s) {
					t.Errorf("%s: FRAM region %q diverges: fused=%v scalar=%v", pw.name, f.Name, f.Words, s.Words)
				}
			}
			if len(fused.FRAM) != len(scalar.FRAM) {
				t.Errorf("%s: %d FRAM regions survive fused, %d scalar", pw.name, len(fused.FRAM), len(scalar.FRAM))
			}
		}
		if wantReboots && pw.name == "rf-100uF" && scalar.Stats.Reboots == 0 {
			t.Errorf("%s: no reboots: the fused-to-scalar brown-out handoff is not exercised", pw.name)
		}
	}
}

// TestTrackWastedMatchesTraceAnalysis pins the device-native wasted-work
// mirror to the trace subsystem's arithmetic: the same run observed
// through a trace buffer (which forces the scalar path — a tracer must
// see every op) must report the identical TotalWastedEnergyNJ, bit for
// bit, as a fused run using Device.TrackWasted. This is what lets fleet
// campaigns drop their per-device tracers without moving a single
// reported number.
func TestTrackWastedMatchesTraceAnalysis(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)

	for _, rt := range allRuntimes() {
		t.Run(rt.Name(), func(t *testing.T) {
			power := func() energy.System {
				return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
			}

			// Reference: tracer-attached run, trace analysis arithmetic.
			devT := mcu.New(power())
			buf := trace.NewAnalysisBuffer(256)
			devT.SetTracer(buf)
			imgT, err := core.Deploy(devT, qm)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if _, err := rt.Infer(imgT, qin); err != nil {
				t.Fatalf("traced infer: %v", err)
			}
			devT.FlushTrace()
			want := buf.Analysis().TotalWastedEnergyNJ

			// Device-native mirror on the fused path.
			devW := mcu.New(power())
			devW.TrackWasted(true)
			imgW, err := core.Deploy(devW, qm)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			if _, err := rt.Infer(imgW, qin); err != nil {
				t.Fatalf("tracked infer: %v", err)
			}
			got := devW.WastedNJ()

			if got != want {
				t.Fatalf("wasted energy diverges: TrackWasted=%v trace analysis=%v", got, want)
			}
			if devT.Stats().Reboots != devW.Stats().Reboots {
				t.Fatalf("reboot count diverges: traced=%d tracked=%d",
					devT.Stats().Reboots, devW.Stats().Reboots)
			}
		})
	}
}

// flattenFRAM reads a snapshot's contents back through a structurally
// identical scratch bank (snapshots are opaque) and returns them as one
// flat word list.
func flattenFRAM(t *testing.T, snap *mem.Snapshot, qm *dnn.QuantModel) []int64 {
	t.Helper()
	dev := mcu.New(energy.Continuous{})
	if _, err := core.Deploy(dev, qm); err != nil {
		t.Fatalf("scratch deploy: %v", err)
	}
	if err := snap.RestoreTo(dev.FRAM); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var out []int64
	for i := 0; i < dev.FRAM.Regions(); i++ {
		out = append(out, dev.FRAM.RegionAt(i).Words()...)
	}
	return out
}

// putCounter counts every OnPut an observed bank delivers.
type putCounter struct{ n int64 }

func (c *putCounter) OnPut(*mem.Region, int, int64) { c.n++ }

// TestFusedSnapshotCOWAndObserver is the regression guard for the two
// sharing contracts raw-word kernels could silently break:
//
//  1. Bank snapshots are copies (COW against *previous snapshots*, never
//     against live words), so fused writes through Region.Words must not
//     alter any existing snapshot's contents.
//  2. An attached PutObserver must see every store — so the fused path
//     must disqualify itself and every store must route through Put.
func TestFusedSnapshotCOWAndObserver(t *testing.T) {
	qm, x := intermittest.TinyModel(1)
	qin := qm.QuantizeInput(x)
	rt := sonic.SONIC{}

	t.Run("snapshot-cow", func(t *testing.T) {
		dev := mcu.New(energy.Continuous{})
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		snap0 := dev.FRAM.Snapshot(nil, nil)
		if _, err := rt.Infer(img, qin); err != nil {
			t.Fatalf("infer: %v", err)
		}
		// snap1 shares every page unchanged since snap0 (the weights) with
		// snap0's storage.
		snap1 := dev.FRAM.Snapshot(snap0, nil)
		want0 := flattenFRAM(t, snap0, qm)
		want1 := flattenFRAM(t, snap1, qm)

		// A second fused inference rewrites activations and accumulators
		// in place through raw backing slices.
		if _, err := rt.Infer(img, qin); err != nil {
			t.Fatalf("second infer: %v", err)
		}
		if got := flattenFRAM(t, snap0, qm); !reflect.DeepEqual(got, want0) {
			t.Error("fused run mutated the pre-run snapshot")
		}
		if got := flattenFRAM(t, snap1, qm); !reflect.DeepEqual(got, want1) {
			t.Error("fused run mutated the mid-train snapshot")
		}
	})

	t.Run("put-observer", func(t *testing.T) {
		ref := fusedRun(t, qm, qin, rt, energy.Continuous{}, false)

		dev := mcu.New(energy.Continuous{})
		ctr := &putCounter{}
		dev.FRAM.SetObserver(ctr)
		img, err := core.Deploy(dev, qm)
		if err != nil {
			t.Fatalf("deploy: %v", err)
		}
		logits, err := rt.Infer(img, qin)
		if err != nil {
			t.Fatalf("infer: %v", err)
		}
		if !reflect.DeepEqual(logits, ref.Logits) {
			t.Errorf("observer fallback changed logits: got %v want %v", logits, ref.Logits)
		}
		stores := dev.Stats().OpCount[mcu.OpStoreFRAM]
		if ctr.n < stores {
			t.Errorf("observer missed stores: saw %d puts, device charged %d FRAM stores",
				ctr.n, stores)
		}
	})
}

var _ = fmt.Sprintf // keep fmt for schedule labels if extended
