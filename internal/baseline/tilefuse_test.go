package baseline

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fixed"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/mem"
	"repro/internal/task"
)

// TestTileSizeBound pins the largest tile to what the redo log holds: a
// tile-511 task writes at most 511 partials plus its cursor, which fits
// the 512-entry log, and a larger tile is an error before anything runs,
// not a log-overflow panic mid-inference.
func TestTileSizeBound(t *testing.T) {
	qm, ex := buildModel(t)
	qin := qm.QuantizeInput(ex[0].X)
	img, err := core.Deploy(mcu.New(energy.Continuous{}), qm)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Tile{TileSize: MaxTileSize}.Infer(img, qin)
	if err != nil {
		t.Fatalf("tile-%d: %v", MaxTileSize, err)
	}
	assertEqualQ(t, got, qm.Forward(qin))
	for _, k := range []int{MaxTileSize + 1, 4096, 0} {
		if _, err := (Tile{TileSize: k}).Infer(img, qin); err == nil {
			t.Errorf("tile-%d: no error", k)
		}
	}
}

// countingFuser counts the tasks the runtime funds through a Fuser.
type countingFuser struct {
	task.Fuser
	funded int
}

func (f *countingFuser) Apply(m int) task.ID {
	f.funded += m
	return f.Fuser.Apply(m)
}

// runTiled runs one tile-k inference with the task runtime left
// allocated, and returns the tasks funded whole, the plan's task count
// and the words of every FRAM region, the redo log and control state
// included.
func runTiled(t *testing.T, qm *dnn.QuantModel, qin []fixed.Q15, k int, power energy.System, noFuse bool) (funded, tasks int, fram [][]int64) {
	t.Helper()
	dev := mcu.New(power)
	dev.NoFuse = noFuse
	img, err := core.Deploy(dev, qm)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.LoadInput(qin); err != nil {
		t.Fatal(err)
	}
	rt, err := task.New(dev, DefaultLogEntries)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*mem.Region{img.ActA, img.ActB, img.AccA, img.AccB, img.Ctl} {
		if r != nil {
			rt.Share(r)
		}
	}
	x := newTileRun(img, rt, planFor(img, k))
	f := &countingFuser{Fuser: x}
	if !noFuse {
		rt.SetFuser(f)
	}
	rt.Start(0)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	assertEqualQ(t, img.ReadOutput(x.prog.FinalParity), qm.Forward(qin))
	for _, r := range x.plan.runs {
		tasks += int(r.tasks)
	}
	for i := 0; i < dev.FRAM.Regions(); i++ {
		fram = append(fram, slices.Clone(dev.FRAM.RegionAt(i).ROWords()))
	}
	return f.funded, tasks, fram
}

// TestTileFusedTasksEngage guards the fused path against silently never
// engaging, which the fused-vs-scalar oracle cannot tell from a correct
// run: on continuous power every task of the inference is funded whole,
// and under brown-outs some are and the rest run their scalar bodies.
// Either way every FRAM word ends as on the NoFuse path — the redo log
// and the runtime's control state too, which the oracle cannot see
// because the runtime releases them.
func TestTileFusedTasksEngage(t *testing.T) {
	tiny, tx := intermittest.TinyModel(1)
	csr, cx := intermittest.AdversarialCSRModel(1)
	for _, m := range []struct {
		name string
		qm   *dnn.QuantModel
		x    []float64
	}{{"tiny", tiny, tx}, {"adversarial-csr", csr, cx}} {
		qin := m.qm.QuantizeInput(m.x)
		for _, pw := range []struct {
			name string
			mk   func() energy.System
			all  bool
		}{
			{"cont", func() energy.System { return energy.Continuous{} }, true},
			{"rf-100uF", func() energy.System {
				return energy.NewIntermittent(energy.Cap100uF, energy.ConstantHarvester{Watts: 1e-3})
			}, false},
		} {
			for _, k := range []int{8, 32} {
				funded, tasks, fram := runTiled(t, m.qm, qin, k, pw.mk(), false)
				_, _, want := runTiled(t, m.qm, qin, k, pw.mk(), true)
				t.Logf("%s tile-%d %s: %d of %d tasks funded whole", m.name, k, pw.name, funded, tasks)
				if pw.all && funded != tasks || !pw.all && funded == 0 {
					t.Errorf("%s tile-%d %s: %d of %d tasks funded whole", m.name, k, pw.name, funded, tasks)
				}
				if !reflect.DeepEqual(fram, want) {
					t.Errorf("%s tile-%d %s: FRAM diverges from the NoFuse run", m.name, k, pw.name)
				}
			}
		}
	}
}
