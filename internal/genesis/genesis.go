// Package genesis implements GENESIS (§5): automatic exploration of
// compressed network configurations — pruning and separation at several
// aggressiveness levels — with fine-tuning, feasibility checking against
// the device's non-volatile memory budget, Pareto-frontier construction
// (Fig. 4), and selection of the configuration that maximizes the IMpJ
// application-performance model of §3 (Fig. 5).
//
// Inference energy per configuration is measured, not estimated: the
// quantized network is deployed on the device model and run once under the
// deployment runtime (TAILS by default) on continuous power, exactly as
// the paper derives per-operation energies from its SONIC & TAILS
// prototype (§5.3).
package genesis

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/imodel"
	"repro/internal/mcu"
	"repro/internal/tails"
	"repro/internal/tape"
)

// Technique identifies which compression family a configuration uses.
type Technique string

// Technique values.
const (
	TechNone     Technique = "none"
	TechPrune    Technique = "prune"
	TechSeparate Technique = "separate"
	TechBoth     Technique = "both"
)

// Config is one point in GENESIS's search space: a global pruning level
// (fraction of weights dropped) and a separation rank fraction (fraction of
// full rank retained), applied across the network's layers.
type Config struct {
	Technique  Technique
	PruneLevel float64 // 0 = no pruning
	RankFrac   float64 // 1 = no separation
}

// Name is a short identifier like "prune-0.90" or "both-0.75-r0.50".
func (c Config) Name() string {
	switch c.Technique {
	case TechNone:
		return "uncompressed"
	case TechPrune:
		return fmt.Sprintf("prune-%.2f", c.PruneLevel)
	case TechSeparate:
		return fmt.Sprintf("sep-r%.2f", c.RankFrac)
	default:
		return fmt.Sprintf("both-%.2f-r%.2f", c.PruneLevel, c.RankFrac)
	}
}

// Result is the evaluated outcome of one configuration.
type Result struct {
	Config     Config
	Accuracy   float64
	TP, TN     float64
	MACs       int
	ParamBytes int
	Feasible   bool
	EInferJ    float64 // measured energy per inference (Joules)
	IMpJ       float64
	Model      *dnn.QuantModel // nil if quantization/deployment failed

	// Err records why evaluation failed ("apply: ...", "quantize: ...",
	// "deploy: ...", "infer: ..."); empty for a fully evaluated config. A
	// string rather than an error so Result survives gob round-trips
	// through the report cache. Errored results are never feasible and are
	// excluded from per-technique frontiers.
	Err string
}

// Options configures a GENESIS run.
type Options struct {
	Network string // "mnist", "har", or "okg"
	Seed    uint64

	TrainSamples, TestSamples int
	Epochs                    int // base training epochs
	FineTuneEpochs            int // per-config fine-tuning epochs
	MaxSamplesPerEpoch        int // cap per epoch (0 = all)

	// FRAMBudgetBytes is the weight-storage budget for feasibility. The
	// paper's original networks exceed their device's 256 KB FRAM; our
	// scaled-down networks exceed a scaled-down budget (default 40 KB,
	// modelling a small FRAM part with the runtime resident).
	FRAMBudgetBytes int

	// Interesting is the class index treated as the "interesting" event
	// for the tp/tn rates of the application model.
	Interesting int

	// App supplies Esense and Ecomm (and the base rate p); EInfer is
	// filled per configuration from measurement.
	App imodel.Params

	// MeasureRuntime is the inference implementation whose energy defines
	// EInfer (default TAILS — the deployed system is SONIC & TAILS, and
	// the paper derives per-operation energies from that prototype).
	MeasureRuntime core.Runtime

	PruneLevels []float64
	RankFracs   []float64

	// Workers bounds the per-config fan-out of Run (0 = GOMAXPROCS).
	// ForceSerial pins the entire run to a single goroutine with serial
	// per-example evaluation; it exists so tests can prove the parallel
	// path bit-identical to the serial one. Neither knob affects results,
	// and both are excluded from the report-cache OptionsHash.
	Workers     int
	ForceSerial bool
}

// DefaultOptions returns a sweep sized for the synthetic datasets.
func DefaultOptions(network string) Options {
	app := imodel.WildlifeDefaults()
	app.EComm /= imodel.ResultOnlyCommFactor // devices send results, not images
	return Options{
		Network:         network,
		Seed:            1,
		TrainSamples:    1200,
		TestSamples:     300,
		Epochs:          3,
		FineTuneEpochs:  1,
		FRAMBudgetBytes: 40 * 1024,
		Interesting:     0,
		App:             app,
		PruneLevels:     []float64{0.5, 0.75, 0.9, 0.96},
		RankFracs:       []float64{0.75, 0.5, 0.3},
	}
}

// Report is the full outcome of a GENESIS run.
type Report struct {
	Options Options
	Dataset string
	Results []Result
	// Chosen indexes the feasible result with the highest IMpJ (-1 if no
	// configuration is feasible).
	Chosen int
}

// ChosenResult returns the selected configuration, or nil.
func (r *Report) ChosenResult() *Result {
	if r.Chosen < 0 {
		return nil
	}
	return &r.Results[r.Chosen]
}

// Run executes the full GENESIS pipeline.
func Run(opts Options) (*Report, error) {
	ds, err := dnn.DatasetFor(opts.Network, opts.Seed, opts.TrainSamples, opts.TestSamples)
	if err != nil {
		return nil, err
	}
	base, err := dnn.NetworkFor(opts.Network, opts.Seed)
	if err != nil {
		return nil, err
	}
	cfg := dnn.DefaultTrainConfig()
	cfg.Epochs = opts.Epochs
	cfg.Seed = opts.Seed
	cfg.MaxSamplesPerEpoch = opts.MaxSamplesPerEpoch
	dnn.Train(base, ds, cfg)

	report := &Report{Options: opts, Dataset: ds.String(), Chosen: -1}
	configs := opts.Configs()
	report.Results = make([]Result, len(configs))
	// Every config starts from a private decode of the trained base (Clone
	// is itself an Encode/Decode round-trip). A separation depends only on
	// the base and the rank fraction, so it runs once per distinct
	// RankFrac and the configs sharing it decode its encoding. Results land
	// at their config's index, and every per-example reduction is an
	// order-independent integer count, so the parallel report is
	// bit-identical to the ForceSerial one — see
	// TestGenesisParallelDeterministic.
	var raw bytes.Buffer
	if err := base.Encode(&raw); err != nil {
		return nil, err
	}
	blob := raw.Bytes()
	seps := make(map[float64]*separation)
	for _, c := range configs {
		if c.separates() && seps[c.RankFrac] == nil {
			seps[c.RankFrac] = &separation{}
		}
	}
	evaluate := func(i, evalWorkers int) {
		c := configs[i]
		start := blob
		if c.separates() {
			b, err := seps[c.RankFrac].encoded(blob, c)
			if err != nil {
				report.Results[i] = Result{Config: c, Err: fmt.Sprintf("apply: %v", err)}
				return
			}
			start = b
		}
		n, err := dnn.Decode(bytes.NewReader(start))
		if err != nil {
			report.Results[i] = Result{Config: c, Err: fmt.Sprintf("clone: %v", err)}
			return
		}
		report.Results[i] = evaluateSeparated(n, ds, c, opts, evalWorkers)
	}
	if opts.ForceSerial {
		for i := range configs {
			evaluate(i, 1)
		}
	} else {
		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range configs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				evaluate(i, 0)
			}(i)
		}
		wg.Wait()
	}
	best := -1.0
	for i := range report.Results {
		r := &report.Results[i]
		if r.Feasible && r.IMpJ > best {
			best = r.IMpJ
			report.Chosen = i
		}
	}
	return report, nil
}

// Configs enumerates the sweep: the uncompressed point, each pruning level,
// each separation level, and their cross product.
func (o Options) Configs() []Config {
	out := []Config{{Technique: TechNone, RankFrac: 1}}
	for _, p := range o.PruneLevels {
		out = append(out, Config{Technique: TechPrune, PruneLevel: p, RankFrac: 1})
	}
	for _, r := range o.RankFracs {
		out = append(out, Config{Technique: TechSeparate, RankFrac: r})
	}
	for _, p := range o.PruneLevels {
		for _, r := range o.RankFracs {
			out = append(out, Config{Technique: TechBoth, PruneLevel: p, RankFrac: r})
		}
	}
	return out
}

// separation is the trained base separated at one rank fraction, computed
// on first use and shared, encoded, by every config with that fraction.
type separation struct {
	once sync.Once
	blob []byte
	err  error
}

// encoded returns the encoding of the base (given as its encoding)
// separated as c prescribes, separating on the first call only.
func (s *separation) encoded(base []byte, c Config) ([]byte, error) {
	s.once.Do(func() {
		n, err := dnn.Decode(bytes.NewReader(base))
		if err == nil {
			err = separate(n, c)
		}
		var buf bytes.Buffer
		if err == nil {
			err = n.Encode(&buf)
		}
		s.blob, s.err = buf.Bytes(), err
	})
	return s.blob, s.err
}

// evaluateSeparated finishes applying a configuration to an
// already-private network that has been separated as c prescribes (the
// caller hands over ownership): it prunes, fine-tunes, quantizes,
// measures, and scores it. evalWorkers is passed through to the sharded
// confusion pass (1 = fully serial, 0 = auto).
func evaluateSeparated(n *dnn.Network, ds *dataset.Dataset, c Config, opts Options, evalWorkers int) Result {
	if err := prune(n, c); err != nil {
		return Result{Config: c, Err: fmt.Sprintf("apply: %v", err)}
	}
	if opts.FineTuneEpochs > 0 && c.Technique != TechNone {
		ft := dnn.DefaultTrainConfig()
		ft.Epochs = opts.FineTuneEpochs
		ft.LR = 0.001
		ft.Seed = opts.Seed + 77
		ft.MaxSamplesPerEpoch = opts.MaxSamplesPerEpoch
		dnn.Train(n, ds, ft)
	}
	res := evaluateNetwork(n, ds, opts, evalWorkers)
	res.Config = c
	return res
}

// evaluateNetwork quantizes a compressed network, checks feasibility,
// measures its inference energy on the device model, and scores it with
// the IMpJ application model.
func evaluateNetwork(n *dnn.Network, ds *dataset.Dataset, opts Options, evalWorkers int) Result {
	var res Result
	conf := dnn.ConfusionWorkers(n, ds.Test, ds.NumClasses, evalWorkers)
	res.Accuracy = accuracy(conf, len(ds.Test))
	res.TP, res.TN = dnn.BinaryRates(conf, opts.Interesting)
	res.MACs = n.MACs()

	calib := make([][]float64, 0, 16)
	for i := 0; i < 16 && i < len(ds.Train); i++ {
		calib = append(calib, ds.Train[i].X)
	}
	qm, err := dnn.Quantize(n, calib)
	if err != nil {
		res.Err = fmt.Sprintf("quantize: %v", err)
		return res
	}
	res.Model = qm
	res.ParamBytes = qm.WeightWords() * 2
	res.Feasible = res.ParamBytes <= opts.FRAMBudgetBytes

	// Measure inference energy on the device model. Each call builds its
	// own mcu.Device, so concurrent workers never share device state.
	rt := opts.MeasureRuntime
	if rt == nil {
		rt = tails.TAILS{}
	}
	dev := mcu.New(energy.Continuous{})
	img, err := core.Deploy(dev, qm)
	if err != nil {
		res.Feasible = false
		res.Err = fmt.Sprintf("deploy: %v", err)
		return res
	}
	defer img.Release()
	// The runtime compiles qm's op tape into the process-wide cache, which
	// exists for models deployed many times; a candidate runs once here,
	// so drop its program rather than pin it for the life of the process.
	defer tape.Forget(qm)
	if _, err := rt.Infer(img, qm.QuantizeInput(ds.Test[0].X)); err != nil {
		res.Feasible = false
		res.Err = fmt.Sprintf("infer: %v", err)
		return res
	}
	res.EInferJ = dev.Stats().EnergyNJ() * 1e-9

	app := opts.App
	app.TP, app.TN, app.EInfer = res.TP, res.TN, res.EInferJ
	res.IMpJ = imodel.Inference(app)
	return res
}

// accuracy is the top-1 accuracy a confusion matrix over n examples
// records: its diagonal over n, and 0 for no examples, as dnn.Evaluate.
func accuracy(conf [][]int, n int) float64 {
	if n == 0 {
		return 0
	}
	correct := 0
	for i, row := range conf {
		correct += row[i]
	}
	return float64(correct) / float64(n)
}

// Apply transforms a network in place according to a configuration.
// Separation runs first (back to front so indices stay valid), then
// pruning on the resulting layers. Classifier (final) fully-connected
// layers are never compressed, and tiny layers are skipped.
func Apply(n *dnn.Network, c Config) error {
	if err := separate(n, c); err != nil {
		return err
	}
	return prune(n, c)
}

// separates reports whether c changes the network's structure by
// separation (as opposed to only pruning it, or leaving it alone).
func (c Config) separates() bool {
	return (c.Technique == TechSeparate || c.Technique == TechBoth) && c.RankFrac < 1
}

// separate is Apply's first phase: it factorizes every large layer except
// the classifier at c's rank fraction, back to front.
func separate(n *dnn.Network, c Config) error {
	if !c.separates() {
		return nil
	}
	lastFC := lastDenseIndex(n)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		switch l := n.Layers[i].(type) {
		case *dnn.Conv:
			if l.W.Len() < 64 {
				continue
			}
			if l.C == 1 {
				full := minInt(l.C*l.KH, l.F*l.KW)
				if err := compress.SeparateConvSpatial(n, i, scaleRank(full, c.RankFrac)); err != nil {
					return err
				}
			} else {
				rf := scaleRank(l.F, c.RankFrac)
				rc := scaleRank(l.C, c.RankFrac)
				if err := compress.SeparateConvTucker2(n, i, rf, rc); err != nil {
					return err
				}
			}
		case *dnn.Dense:
			if i == lastFC || l.Out*l.In < 1024 {
				continue
			}
			full := minInt(l.Out, l.In)
			if err := compress.SeparateDense(n, i, scaleRank(full, c.RankFrac)); err != nil {
				return err
			}
		}
	}
	return nil
}

// prune is Apply's second phase: it prunes every large layer except the
// classifier at c's pruning level, then validates the network.
func prune(n *dnn.Network, c Config) error {
	if (c.Technique == TechPrune || c.Technique == TechBoth) && c.PruneLevel > 0 {
		lastFC := lastDenseIndex(n)
		for i := len(n.Layers) - 1; i >= 0; i-- {
			switch l := n.Layers[i].(type) {
			case *dnn.Conv:
				if l.W.Len() < 100 {
					continue
				}
				if _, err := compress.PruneConv(n, i, c.PruneLevel); err != nil {
					return err
				}
			case *dnn.Dense:
				if i == lastFC || l.Out*l.In < 1024 {
					continue
				}
				if _, err := compress.SparsifyDense(n, i, c.PruneLevel); err != nil {
					return err
				}
			}
		}
	}
	_, err := n.Validate()
	return err
}

func scaleRank(full int, frac float64) int {
	r := int(float64(full)*frac + 0.5)
	if r < 1 {
		r = 1
	}
	return r
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ParetoFront returns the indices of results on the accuracy-vs-MACs Pareto
// frontier among the given candidate indices: points where no other
// candidate has both fewer-or-equal MACs and strictly higher accuracy.
// Indices are returned sorted by MACs ascending.
func ParetoFront(results []Result, candidates []int) []int {
	var front []int
	for _, i := range candidates {
		dominated := false
		for _, j := range candidates {
			if j == i {
				continue
			}
			if results[j].MACs <= results[i].MACs && results[j].Accuracy > results[i].Accuracy {
				dominated = true
				break
			}
			if results[j].MACs < results[i].MACs && results[j].Accuracy >= results[i].Accuracy {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	sort.Slice(front, func(a, b int) bool {
		return results[front[a]].MACs < results[front[b]].MACs
	})
	return front
}

// ByTechnique returns result indices whose technique is in the given set
// (TechNone is always included, as in the paper's per-technique frontiers).
// Results that failed to evaluate (Err != "") are excluded: their zero MACs
// and accuracy would otherwise fabricate a frontier point.
func ByTechnique(results []Result, techs ...Technique) []int {
	var out []int
	for i := range results {
		if results[i].Err != "" {
			continue
		}
		t := results[i].Config.Technique
		if t == TechNone {
			out = append(out, i)
			continue
		}
		for _, want := range techs {
			if t == want {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
