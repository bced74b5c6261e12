package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/intermittest"
)

// The served workloads share one runtime × power grid; warm-mix runs it
// over all three evaluation networks, cold-okg over okg alone.
var (
	nets           = []string{"mnist", "har", "okg"}
	servedRuntimes = []string{"tile-32", "sonic", "tails"}
	powers         = []powerSpec{
		{Name: "rf-100uF", Kind: "const", CapFarads: 100e-6},
		{Name: "solar-100uF", Kind: "solar", CapFarads: 100e-6, Watts: 5e-3},
		{Name: "cont", Kind: "cont"},
	}
	// fuzzRuntimes is the cmd/fuzz -war campaign: every runtime of the
	// fleet vocabulary plus the WAR-broken negative control.
	fuzzRuntimes = []string{"base", "tile-8", "tile-32", "tile-128", "sonic", "tails", "ckpt-8", "broken"}
)

const (
	coldDevices = 27  // three of each okg (runtime, power) cell
	warmDevices = 135 // five of each (net, runtime, power) cell
	warmSetups  = 3   // model-cache preparations per warm-mix run; setup_s is their median
)

// servedModelSeed is the model seed of both served workloads, the default
// of cmd/serve -seed. It is fixed, not drawn from the workload seed:
// GENESIS picks a different configuration per seed, and the simulation
// cost of the chosen models differs by up to 2.4× between seeds, so a
// drawn seed would make the run-to-run spread a property of the seed
// rather than of the code. Jobs still differ by their spec seeds.
const servedModelSeed = 1

// Seed derivation: each other input of a run is a pure function of the
// workload seed, a per-purpose salt and the input's index.
const (
	saltColdSpec = iota + 1
	saltWarmSpec
	saltFuzzModel
	saltLayerModel
)

func mix(seed, salt uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt<<32 + uint64(i) + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// modelSeed keeps model seeds in a readable range.
func modelSeed(seed, salt uint64, i int) uint64 { return 1 + mix(seed, salt, i)%(1<<31) }

func coldSpec(seed uint64, i int) jobSpec {
	return jobSpec{Devices: coldDevices, Seed: mix(seed, saltColdSpec, i),
		Models: []string{"okg"}, Runtimes: servedRuntimes, Powers: powers}
}

func warmSpec(seed uint64, i int) jobSpec {
	return jobSpec{Devices: warmDevices, Seed: mix(seed, saltWarmSpec, i),
		Models: nets, Runtimes: servedRuntimes, Powers: powers}
}

// loop runs body for input 0, 1, ... until seconds have passed since the
// loop started; it always runs at least one input.
func loop(seconds float64, body func(i int)) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		body(i)
	}
}

// coldJob serves one cold-okg job from a fresh server process and returns
// the job with the server's start-up time and peak RSS.
func coldJob(seed uint64, i int) (job, float64, float64, error) {
	srv, addr, setup, err := startServer(servedModelSeed, nil)
	if err != nil {
		return job{}, 0, 0, err
	}
	c := newClient(addr)
	j, err := timeJob(c, coldSpec(seed, i))
	c.close()
	rss, ferr := srv.finish()
	if err == nil {
		err = ferr
	}
	return j, setup.Seconds(), rss, err
}

// coldPass runs cold jobs for seconds; setup_s is each server's start-up.
func coldPass(cfg config, w io.Writer, seconds float64) *tally {
	t := &tally{}
	loop(seconds, func(i int) {
		t.attempted++
		j, setup, rss, err := coldJob(cfg.seed, i)
		if err != nil {
			t.fail(w, "cold job %d: %v", i, err)
			return
		}
		j.input = i
		t.jobs = append(t.jobs, j)
		t.setups = append(t.setups, setup)
		t.rss = append(t.rss, rss)
	})
	return t
}

func runCold(cfg config, w io.Writer) (*result, error) {
	if cfg.trace {
		return traceRun(cfg, w, coldPass(cfg, w, cfg.seconds/4), replayColdJobs)
	}
	return coldPass(cfg, w, cfg.seconds).endToEnd(w), nil
}

// warmPass prepares the warm server setups times (the last one serves), then
// runs warm-mix jobs against it for seconds. A server's peak RSS is set by
// model preparation, so every set-up's server contributes one.
func warmPass(cfg config, w io.Writer, seconds float64, setups int) (*tally, error) {
	t := &tally{}
	var srv *child
	var addr string
	for k := 0; k < setups; k++ {
		s, a, d, err := startServer(servedModelSeed, nets)
		if err != nil {
			return nil, fmt.Errorf("warm set-up: %w", err)
		}
		t.setups = append(t.setups, d.Seconds())
		if k < setups-1 {
			rss, err := s.finish()
			if err != nil {
				return nil, fmt.Errorf("warm set-up: %w", err)
			}
			t.rss = append(t.rss, rss)
			continue
		}
		srv, addr = s, a
	}
	c := newClient(addr)
	loop(seconds, func(i int) {
		t.attempted++
		j, err := timeJob(c, warmSpec(cfg.seed, i))
		if err != nil {
			t.fail(w, "warm job %d: %v", i, err)
			return
		}
		j.input = i
		t.jobs = append(t.jobs, j)
	})
	c.close()
	rss, err := srv.finish()
	t.rss = append(t.rss, rss)
	return t, err
}

func runWarm(cfg config, w io.Writer) (*result, error) {
	if cfg.trace {
		t, err := warmPass(cfg, w, cfg.seconds/4, 1)
		if err != nil {
			return nil, err
		}
		return traceRun(cfg, w, t, replayWarmJobs)
	}
	t, err := warmPass(cfg, w, cfg.seconds, warmSetups)
	if err != nil {
		return nil, err
	}
	return t.endToEnd(w), nil
}

// fuzzRuntimeList resolves fuzzRuntimes: the fleet vocabulary by name,
// plus the negative control, which only the intermittence tests know.
func fuzzRuntimeList() ([]core.Runtime, error) {
	rts := make([]core.Runtime, len(fuzzRuntimes))
	for i, name := range fuzzRuntimes {
		if name == "broken" {
			rts[i] = intermittest.Broken{}
			continue
		}
		rt, err := fleet.RuntimeByName(name)
		if err != nil {
			return nil, err
		}
		rts[i] = rt
	}
	return rts, nil
}

func fuzzOptions(ms uint64) intermittest.Options {
	return intermittest.Options{Seed: ms, CheckWAR: true}
}

// fuzzCampaign is one cmd/fuzz -war campaign: build the tiny model, sweep
// every runtime, and check the verdicts.
func fuzzCampaign(ms uint64) (job, error) {
	qm, x := intermittest.TinyModel(ms)
	rts, err := fuzzRuntimeList()
	if err != nil {
		return job{}, err
	}
	c0 := time.Now()
	rep, err := intermittest.Campaign(qm, x, rts, fuzzOptions(ms))
	camp := time.Since(c0)
	if err != nil {
		return job{}, err
	}
	j, err := checkCampaign(rep)
	j.campaign = camp.Seconds()
	return j, err
}

// fuzzResult is what a fuzz child reports.
type fuzzResult struct {
	Campaign   float64 `json:"campaign_s"`
	Devices    int64   `json:"devices"`
	Boundaries int64   `json:"boundaries"`
	Digest     []byte  `json:"digest"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
}

// childFuzz runs one campaign for the model seed in args[0] and writes its
// result, with the process's peak RSS, as one JSON line.
func childFuzz(args []string) error {
	if len(args) != 1 {
		return errors.New("child-fuzz wants <model-seed>")
	}
	ms, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	j, err := fuzzCampaign(ms)
	if err != nil {
		return err
	}
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(fuzzResult{j.campaign, j.devices, j.boundaries, j.digest, rss})
}

// fuzzJob runs one campaign in a fresh process, as a user running cmd/fuzz
// does, and returns it with the process's start-up time and peak RSS.
func fuzzJob(ms uint64) (job, float64, float64, error) {
	start := time.Now()
	c, _, setup, err := startChild("child-fuzz", strconv.FormatUint(ms, 10))
	if err != nil {
		return job{}, 0, 0, err
	}
	line, rerr := c.stdout.ReadBytes('\n')
	lat := time.Since(start)
	if err := c.stop(); err != nil {
		return job{}, 0, 0, err
	}
	var r fuzzResult
	if rerr == nil {
		rerr = json.Unmarshal(line, &r)
	}
	if rerr != nil {
		return job{}, 0, 0, fmt.Errorf("fuzz child: %w", rerr)
	}
	return job{latency: lat.Seconds(), campaign: r.Campaign, devices: r.Devices,
		boundaries: r.Boundaries, digest: r.Digest}, setup.Seconds(), r.PeakRSSMB, nil
}

// checkCampaign applies cmd/fuzz's verdicts: protected runtimes clean, the
// negative controls (base, broken) flagged.
func checkCampaign(rep *intermittest.Report) (job, error) {
	var j job
	if len(rep.Runtimes) != len(fuzzRuntimes) {
		return j, fmt.Errorf("campaign reported %d runtimes, want %d", len(rep.Runtimes), len(fuzzRuntimes))
	}
	for _, r := range rep.Runtimes {
		negative := r.Runtime == "base" || r.Runtime == "broken"
		if negative == r.Clean() {
			return j, fmt.Errorf("model seed %d: %s", rep.Seed, r.Summary())
		}
		j.boundaries += int64(r.Swept)
		j.devices += int64(r.Swept) + 1 // every checked boundary, plus the golden run
	}
	dig, err := json.Marshal(rep)
	j.digest = dig
	return j, err
}

// fuzzPass runs fuzz-war campaigns for seconds; setup_s is each campaign
// process's start-up.
func fuzzPass(cfg config, w io.Writer, seconds float64) *tally {
	t := &tally{}
	loop(seconds, func(i int) {
		t.attempted++
		j, setup, rss, err := fuzzJob(modelSeed(cfg.seed, saltFuzzModel, i))
		if err != nil {
			t.fail(w, "fuzz campaign %d: %v", i, err)
			return
		}
		j.input = i
		t.jobs = append(t.jobs, j)
		t.setups = append(t.setups, setup)
		t.rss = append(t.rss, rss)
	})
	return t
}

func runFuzz(cfg config, w io.Writer) (*result, error) {
	if cfg.trace {
		return traceRun(cfg, w, fuzzPass(cfg, w, cfg.seconds/4), replayFuzzJobs)
	}
	return fuzzPass(cfg, w, cfg.seconds).endToEnd(w), nil
}

// replayColdJobs replays each cold job of the untraced pass in a fresh
// child process, which records the spans; see childReplay.
func replayColdJobs(cfg config, s *suite, inputs []int) ([]int, [][]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var roots []int
	var digests [][]byte
	for _, i := range inputs {
		in, err := json.Marshal(replayInput{ModelSeed: servedModelSeed, Spec: coldSpec(cfg.seed, i)})
		if err != nil {
			return nil, nil, err
		}
		cmd := exec.Command(self, "child-replay")
		cmd.Stdin = bytes.NewReader(in)
		cmd.Stderr = os.Stderr
		buf, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("cold replay %d: %w", i, err)
		}
		var out replayOutput
		if err := json.Unmarshal(buf, &out); err != nil {
			return nil, nil, fmt.Errorf("cold replay %d: %w", i, err)
		}
		roots = append(roots, s.tr.adopt(out.Spans)...)
		digests = append(digests, out.Summary)
	}
	return roots, digests, nil
}

type replayInput struct {
	ModelSeed uint64  `json:"model_seed"`
	Spec      jobSpec `json:"spec"`
}

type replayOutput struct {
	Spans   []span          `json:"spans"`
	Summary json.RawMessage `json:"summary"`
}

// childReplay runs one cold-okg job through the calls the server makes for
// it — model preparation, the provisioning prototype, the campaign — in a
// process of its own, and writes the spans and the job's summary.
func childReplay(stdin io.Reader, stdout io.Writer) error {
	var in replayInput
	if err := json.NewDecoder(stdin).Decode(&in); err != nil {
		return err
	}
	tr := &tracer{}
	root := tr.begin("job", -1)
	var p *harness.Prepared
	err := tr.do("harness.prepare", root, func() (err error) {
		p, err = harness.Prepare("okg", harness.PrepareOptions{Seed: in.ModelSeed, Quick: true})
		return err
	})
	if err != nil {
		return err
	}
	m := fleet.Model{Net: "okg", QM: p.Model, Input: p.QuantInput()}
	err = tr.do("fleet.prototype", root, func() (err error) {
		m.Proto, err = fleet.NewPrototype(m)
		return err
	})
	if err != nil {
		return err
	}
	sum, err := replayCampaign(tr, root, in.Spec, map[string]fleet.Model{"okg": m})
	tr.end(root)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(replayOutput{Spans: tr.spans, Summary: sum})
}

// replayCampaign builds and runs one job's campaign as the server's runner
// does, in spans under parent, and returns the summary's canonical JSON.
func replayCampaign(tr *tracer, parent int, spec jobSpec, models map[string]fleet.Model) ([]byte, error) {
	fs, err := spec.fleetSpec()
	if err != nil {
		return nil, err
	}
	var c *fleet.Campaign
	err = tr.do("fleet.new_campaign", parent, func() (err error) {
		c, err = fleet.NewCampaign(fs, models)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *fleet.Result
	err = tr.do("fleet.run", parent, func() (err error) {
		res, err = c.Run(context.Background(), serverWorkers())
		return err
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Agg.Summary())
}

// replayWarmJobs replays the untraced pass's warm-mix jobs in-process over
// the suite's prepared models (the same model seed the server used).
func replayWarmJobs(cfg config, s *suite, inputs []int) ([]int, [][]byte, error) {
	var roots []int
	var digests [][]byte
	for _, i := range inputs {
		root := s.tr.begin("job", -1)
		sum, err := replayCampaign(s.tr, root, warmSpec(cfg.seed, i), s.models)
		s.tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("warm replay %d: %w", i, err)
		}
		roots = append(roots, root)
		digests = append(digests, sum)
	}
	return roots, digests, nil
}

// replayFuzzJobs replays each fuzz-war campaign runtime by runtime through
// intermittest.SweepRuntime, which is what intermittest.Campaign calls.
func replayFuzzJobs(cfg config, s *suite, inputs []int) ([]int, [][]byte, error) {
	var roots []int
	var digests [][]byte
	for _, i := range inputs {
		ms := modelSeed(cfg.seed, saltFuzzModel, i)
		root := s.tr.begin("job", -1)
		rep, err := replayFuzz(s.tr, root, ms)
		var j job
		if err == nil {
			// The untraced job checks the verdicts inside its time too.
			err = s.tr.do("perfbench.check", root, func() (err error) {
				j, err = checkCampaign(rep)
				return err
			})
		}
		s.tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("fuzz replay %d: %w", i, err)
		}
		roots = append(roots, root)
		digests = append(digests, j.digest)
	}
	return roots, digests, nil
}

func replayFuzz(tr *tracer, root int, ms uint64) (*intermittest.Report, error) {
	var qm *dnn.QuantModel
	var x []float64
	tr.do("intermittest.tiny_model", root, func() error {
		qm, x = intermittest.TinyModel(ms)
		return nil
	})
	rts, err := fuzzRuntimeList()
	if err != nil {
		return nil, err
	}
	rep := &intermittest.Report{Seed: ms}
	for i, rt := range rts {
		err := tr.do("intermittest.sweep."+fuzzRuntimes[i], root, func() error {
			rr, err := intermittest.SweepRuntime(qm, x, rt, fuzzOptions(ms))
			if err == nil {
				rep.Runtimes = append(rep.Runtimes, rr)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceRun is the traced run shared by all workloads: the untraced pass t
// has already run a few inputs; replay runs the same inputs again through
// the layers' entry points under spans, and the layer suite measures every
// per-layer metric.
func traceRun(cfg config, w io.Writer, t *tally, replay func(config, *suite, []int) ([]int, [][]byte, error)) (*result, error) {
	s := &suite{tr: &tracer{}, metrics: make(map[string]metric), w: w, t: t}
	if err := s.prepare(cfg); err != nil {
		return nil, err
	}
	inputs := make([]int, len(t.jobs))
	for k, j := range t.jobs {
		inputs[k] = j.input
	}
	roots, digests, err := replay(cfg, s, inputs)
	if err != nil {
		return nil, err
	}
	var traced, untraced []float64
	for k, r := range roots {
		traced = append(traced, float64(s.tr.spans[r].dur())/1e9)
		untraced = append(untraced, t.jobs[k].latency)
		t.attempted++
		if string(digests[k]) != string(t.jobs[k].digest) {
			t.fail(w, "replay of job %d gave a different result than the job", k)
		}
	}
	s.metrics["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	fmt.Fprintf(w, "traced job p50 %.4fs, untraced %.4fs over %d jobs\n", median(traced), median(untraced), len(roots))

	steps, sum, e2e := blockingCoverage(s.tr.spans, roots)
	names := make([]string, 0, len(steps))
	for n := range steps {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Fprintf(w, "self %-32s %10.4fs %6.2f%%\n", n, float64(steps[n])/1e9, 100*float64(steps[n])/float64(e2e))
	}
	share := float64(sum) / float64(e2e)
	fmt.Fprintf(w, "blocking steps' self time: %.4fs of %.4fs traced end-to-end (%.2f%%; tolerance %.0f%%)\n",
		float64(sum)/1e9, float64(e2e)/1e9, 100*share, 100*coverageTolerance)
	t.attempted++
	if share < 1-coverageTolerance || share > 1+coverageTolerance {
		t.fail(w, "blocking steps cover %.2f%% of the traced end-to-end time", 100*share)
	}

	if err := s.layers(cfg); err != nil {
		return nil, err
	}
	if cfg.spansDir != "" {
		if err := s.tr.write(cfg.spansDir, "spans-"+cfg.workload+"-seed"+strconv.FormatUint(cfg.seed, 10)+".json"); err != nil {
			return nil, err
		}
	}
	return &result{Correct: t.failed == 0, Attempted: max(t.attempted, 1), Failed: t.failed, Metrics: s.metrics}, nil
}

// coverageTolerance is how far the blocking steps' summed self times may
// fall from the traced end-to-end time.
const coverageTolerance = 0.05
