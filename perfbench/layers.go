package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/intermittest"
	"repro/internal/linalg"
	"repro/internal/mcu"
	"repro/internal/tape"
)

// suite is the traced run's per-layer measurement: every layer's public
// entry points, called from the benchmark under spans, on inputs derived
// from the workload seed.
type suite struct {
	tr      *tracer
	root    int // the "layers" span every suite step hangs under
	models  map[string]fleet.Model
	metrics map[string]metric
	w       io.Writer
	t       *tally // the untraced pass; failures are counted into it
}

// Model makes the suite's prepared models a serve.ModelSource.
func (s *suite) Model(name string) (fleet.Model, error) {
	m, ok := s.models[name]
	if !ok {
		return fleet.Model{}, fmt.Errorf("no model %q", name)
	}
	return m, nil
}

func (s *suite) set(name string, v float64, unit string) { s.metrics[name] = metric{v, unit} }

func (s *suite) secs(id int) float64 { return float64(s.tr.spans[id].dur()) / 1e9 }

// check counts one checked operation, failing it when err is set.
func (s *suite) check(err error, what string) {
	s.t.attempted++
	if err != nil {
		s.t.fail(s.w, "%s: %v", what, err)
	}
}

// prepare builds the three evaluation networks the way the server's model
// cache does (harness.Prepare at quick budgets, then the provisioning
// prototype), with the warm-mix model seed.
func (s *suite) prepare(cfg config) error {
	s.root = s.tr.begin("layers", -1)
	s.models = make(map[string]fleet.Model)
	po := harness.PrepareOptions{Seed: servedModelSeed, Quick: true}
	for _, net := range nets {
		id := s.tr.begin("harness.prepare."+net, s.root)
		p, err := harness.Prepare(net, po)
		s.tr.end(id)
		if err != nil {
			return err
		}
		if net == "okg" {
			s.set("harness.prepare_s", s.secs(id), "s")
		}
		m := fleet.Model{Net: net, QM: p.Model, Input: p.QuantInput()}
		if m.Proto, err = fleet.NewPrototype(m); err != nil {
			return err
		}
		s.models[net] = m
	}
	return nil
}

// layers measures everything below the served job, then ends the suite.
func (s *suite) layers(cfg config) error {
	defer s.tr.end(s.root)
	for _, step := range []func(config) error{s.okgTraining, s.deployment, s.fleetRun, s.inferCells, s.intermittence, s.serving} {
		if err := step(cfg); err != nil {
			return err
		}
	}
	return nil
}

// Quick-budget training sizes, as harness.Prepare uses them.
const (
	quickTrain, quickTest, quickSamplesPerEpoch = 360, 90, 240
)

// okgTraining measures the cold path's numerics on okg: one training epoch,
// an evaluation, the SVD of the trained 96×1008 dense layer, and the
// separation GENESIS applies to it.
func (s *suite) okgTraining(cfg config) error {
	ms := modelSeed(cfg.seed, saltLayerModel, 0)
	ds, err := dnn.DatasetFor("okg", ms, quickTrain, quickTest)
	if err != nil {
		return err
	}
	net, err := dnn.NetworkFor("okg", ms)
	if err != nil {
		return err
	}
	tc := dnn.DefaultTrainConfig()
	tc.Epochs, tc.Seed, tc.MaxSamplesPerEpoch = 1, ms, quickSamplesPerEpoch
	id := s.tr.begin("dnn.train_epoch", s.root)
	dnn.Train(net, ds, tc)
	s.tr.end(id)
	s.set("dnn.train_epoch_s", s.secs(id), "s")
	s.set("dnn.train_allocs_per_sample", float64(s.tr.spans[id].Allocs)/float64(min(quickSamplesPerEpoch, len(ds.Train))), "count")

	id = s.tr.begin("dnn.evaluate", s.root)
	acc := dnn.Evaluate(net, ds.Test)
	s.tr.end(id)
	s.set("dnn.evaluate_s", s.secs(id), "s")
	s.check(finite(acc), "dnn.Evaluate accuracy")

	li := -1
	for i, l := range net.Layers {
		if d, ok := l.(*dnn.Dense); ok && d.In == 1008 {
			li = i
		}
	}
	if li < 0 {
		return errors.New("okg has no 1008-input dense layer")
	}
	d := net.Layers[li].(*dnn.Dense)
	id = s.tr.begin("linalg.svd", s.root)
	svd := linalg.Decompose(d.W)
	s.tr.end(id)
	s.set("linalg.svd_s", s.secs(id), "s")
	s.set("linalg.svd_allocs", float64(s.tr.spans[id].Allocs), "count")
	s.check(finite(svd.S...), "linalg.Decompose singular values")

	clone := net.Clone()
	id = s.tr.begin("compress.separate_dense", s.root)
	err = compress.SeparateDense(clone, li, d.Out/2)
	s.tr.end(id)
	s.set("compress.separate_dense_s", s.secs(id), "s")
	s.check(err, "compress.SeparateDense")
	return nil
}

// finite reports a NaN or infinite value as an error.
func finite(xs ...float64) error {
	for _, x := range xs {
		if x != x || x > 1e308 || x < -1e308 {
			return fmt.Errorf("non-finite value %v", x)
		}
	}
	return nil
}

// deployRepeats is how many times each deployment step runs; the metric is
// the median, since one call takes only milliseconds.
const deployRepeats = 5

// deployment measures the per-model deployment steps on prepared okg.
func (s *suite) deployment(cfg config) error {
	m := s.models["okg"]
	cont, err := powerClass(powers[2])
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"tape.compile", func() error {
			if tape.Compile(m.QM) == nil {
				return errors.New("nil program")
			}
			return nil
		}},
		{"core.deploy", func() error {
			sys, err := cont.New(0)
			if err != nil {
				return err
			}
			_, err = core.Deploy(mcu.New(sys), m.QM)
			return err
		}},
		{"fleet.prototype", func() error {
			_, err := fleet.NewPrototype(m)
			return err
		}},
	}
	for _, st := range steps {
		var times []float64
		for k := 0; k < deployRepeats; k++ {
			id := s.tr.begin(st.name, s.root)
			err := st.f()
			s.tr.end(id)
			s.check(err, st.name)
			times = append(times, s.secs(id))
		}
		s.set(st.name+"_s", median(times), "s")
	}
	return nil
}

// powerClass turns a spec's power entry into the program's type through
// the same JSON a user writes.
func powerClass(p powerSpec) (fleet.PowerClass, error) {
	var pc fleet.PowerClass
	buf, err := json.Marshal(p)
	if err == nil {
		err = json.Unmarshal(buf, &pc)
	}
	return pc, err
}

// fleetRun measures Campaign.Run on one warm-mix spec.
func (s *suite) fleetRun(cfg config) error {
	spec := warmSpec(cfg.seed, 1<<20)
	fs, err := spec.fleetSpec()
	if err != nil {
		return err
	}
	c, err := fleet.NewCampaign(fs, s.models)
	if err != nil {
		return err
	}
	var res *fleet.Result
	id := s.tr.begin("fleet.run", s.root)
	res, err = c.Run(context.Background(), serverWorkers())
	s.tr.end(id)
	s.check(err, "fleet.Campaign.Run")
	if err != nil {
		return nil
	}
	dev := float64(spec.Devices)
	s.set("fleet.run_s", s.secs(id), "s")
	s.set("fleet.devices_per_s", dev/s.secs(id), "1/s")
	s.set("fleet.allocs_per_device", float64(s.tr.spans[id].Allocs)/dev, "count")
	s.set("fleet.pages_copied_per_device", float64(res.Provision.PagesCopied)/dev, "count")
	if a := res.Agg; a.Devices != int64(spec.Devices) || a.Completed+a.DNC != a.Devices {
		s.check(fmt.Errorf("devices %d, completed %d, dnc %d", a.Devices, a.Completed, a.DNC), "fleet.Campaign.Run result")
	}
	return nil
}

// inferCells runs one inference per (net, runtime, power) cell of
// warm-mix on a freshly deployed device, set up as a fleet device is; an
// untimed warm-up inference of the same cell runs first.
func (s *suite) inferCells(cfg config) error {
	for _, net := range nets {
		m := s.models[net]
		for _, rtName := range servedRuntimes {
			rt, err := fleet.RuntimeByName(rtName)
			if err != nil {
				return err
			}
			for _, p := range powers {
				pc, err := powerClass(p)
				if err != nil {
					return err
				}
				cell := "infer." + net + "." + rtName + "." + p.Name
				var id int
				var ops int64
				var inferErr error
				for rep := 0; rep < 2; rep++ {
					sys, err := pc.New(mix(cfg.seed, saltWarmSpec, 1<<22))
					if err != nil {
						return err
					}
					dev := mcu.New(sys)
					dev.TrackWasted(true)
					img, err := core.Deploy(dev, m.QM)
					if err != nil {
						return err
					}
					if rep == 0 {
						_, _ = rt.Infer(img, m.Input) // warm-up; the timed run is checked
						continue
					}
					id = s.tr.begin(cell, s.root)
					_, inferErr = rt.Infer(img, m.Input)
					s.tr.end(id)
					for _, n := range dev.Stats().OpCount {
						ops += n
					}
				}
				if errors.Is(inferErr, mcu.ErrDoesNotComplete) {
					inferErr = nil // a device that cannot finish on its power is a data point
				}
				s.check(inferErr, cell)
				s.set(cell+".host_ns_per_sim_op", float64(s.tr.spans[id].dur())/float64(max(ops, 1)), "ns")
				s.set(cell+".allocs_per_inference", float64(s.tr.spans[id].Allocs), "count")
			}
		}
	}
	return nil
}

// intermittence measures the fuzz-war layers on one tiny model: the golden
// runs with the WAR shadow armed, then each runtime's sweep.
func (s *suite) intermittence(cfg config) error {
	ms := modelSeed(cfg.seed, saltFuzzModel, 1<<20)
	qm, x := intermittest.TinyModel(ms)
	rts, err := fuzzRuntimeList()
	if err != nil {
		return err
	}
	id := s.tr.begin("intermittest.golden", s.root)
	for _, rt := range rts {
		_, err := intermittest.NewCheckerOpt(qm, x, rt, fuzzOptions(ms))
		s.check(err, "intermittest.NewCheckerOpt "+rt.Name())
	}
	s.tr.end(id)
	s.set("intermittest.golden_s", s.secs(id), "s")
	rep := &intermittest.Report{Seed: ms}
	for i, rt := range rts {
		id := s.tr.begin("intermittest.sweep."+fuzzRuntimes[i], s.root)
		rr, err := intermittest.SweepRuntime(qm, x, rt, fuzzOptions(ms))
		s.tr.end(id)
		if err != nil {
			return err
		}
		rep.Runtimes = append(rep.Runtimes, rr)
		n := float64(max(rr.Swept, 1))
		s.set("intermittest."+fuzzRuntimes[i]+".us_per_boundary", float64(s.tr.spans[id].dur())/1e3/n, "us")
		s.set("intermittest."+fuzzRuntimes[i]+".allocs_per_boundary", float64(s.tr.spans[id].Allocs)/n, "count")
	}
	_, err = checkCampaign(rep)
	s.check(err, "intermittest sweep verdicts")
	return nil
}

// serveJobs is how many warm jobs the suite serves in-process when the
// workload's own pass served none.
const serveJobs = 3

// serving splits served job latency into the POST round trip (which on a
// cold job is model preparation), the server's campaign time and the rest.
// It uses the workload's served jobs when it has them, and otherwise
// serves a few warm-mix jobs from an in-process server over the suite's
// models.
func (s *suite) serving(cfg config) error {
	jobs := s.t.jobs
	if len(jobs) == 0 || jobs[0].submit == 0 {
		jobs = nil
		stop, stopW := io.Pipe()
		ready := make(chan string, 1)
		done := make(chan error, 1)
		go func() { done <- serveUntil(s, stop, func(a string) { ready <- a }) }()
		var addr string
		select {
		case addr = <-ready:
		case err := <-done:
			return err
		}
		c := newClient(addr)
		for i := 0; i < serveJobs; i++ {
			j, err := timeJob(c, warmSpec(cfg.seed, 1<<21+i))
			s.check(err, "in-process warm job")
			if err == nil {
				jobs = append(jobs, j)
			}
		}
		c.close()
		stopW.Close()
		if err := <-done; err != nil {
			return err
		}
	}
	var sub, camp, over []float64
	for _, j := range jobs {
		sub = append(sub, j.submit)
		camp = append(camp, j.campaign)
		over = append(over, j.latency-j.submit-j.campaign)
	}
	s.set("serve.submit_s", median(sub), "s")
	s.set("serve.campaign_s", median(camp), "s")
	s.set("serve.overhead_s", median(over), "s")
	return nil
}
