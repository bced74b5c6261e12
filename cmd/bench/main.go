// Command bench measures the simulator's wall-clock performance on the
// workloads that dominate development time — the Fig. 9 measurement
// matrix (72 cells: three networks × six runtimes × four power systems),
// the intermittence-correctness fuzz campaign, and the fleet campaign
// engine's device throughput — and records them as JSON, seeding the
// repository's performance trajectory. Each perf PR appends its
// before/after to the tracked BENCH_PR<n>.json files.
//
// Usage:
//
//	bench                      # measure and write BENCH_PR10.json
//	bench -count 5 -out /tmp/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/intermittest"
	"repro/internal/mcu"
	"repro/internal/prof"
	"repro/internal/sonic"
)

// preBulkFig9NsPerOp is BenchmarkFig9 at the commit before the bulk-charge
// fast path (ad4056e), measured with -benchtime=1x on the reference
// machine: 1.079 s per 72-cell matrix. The "before" of that PR's ≥3× goal.
const preBulkFig9NsPerOp int64 = 1_079_000_000

// pr7FleetTapeDevPerSec is the tape fleet sweep's throughput recorded in
// BENCH_PR7.json on the reference machine (600 real-network devices, one
// worker, per-device trace analysis still attached). The fused-kernel
// PR's goal is >= 2x this absolute figure.
const pr7FleetTapeDevPerSec float64 = 264.8

// pr8FleetTapeDevPerSec is the fused tape fleet sweep's throughput
// recorded in BENCH_PR8.json on the reference machine (600 real-network
// devices, one worker, every device paying a word-at-a-time fresh deploy
// — both the bulk flash and pooled provisioning landed after it). Kept
// for the throughput trajectory next to the live fresh/pooled A/B.
const pr8FleetTapeDevPerSec float64 = 744.4

// pr9FleetTapeDevPerSec is the fused tape fleet sweep's throughput
// recorded in BENCH_PR9.json on the reference machine (600 real-network
// devices, one worker, pooled provisioning). The sparse row-walk PR's
// goal is >= 1.3x this absolute figure.
const pr9FleetTapeDevPerSec float64 = 762.0

// preForkCampaignNsPerOp is the full WAR-armed fuzz campaign at the commit
// before snapshot-and-fork checking (8a0846c), recorded in BENCH_PR3.json
// on the reference machine: every boundary re-simulated from scratch. The
// historical "before" of this PR's campaign speedup; the live before is
// also measured each run via ForceScratch at identical sweep coverage.
const preForkCampaignNsPerOp int64 = 1_162_645_049

type cellTime struct {
	Net     string `json:"net"`
	Runtime string `json:"runtime"`
	Power   string `json:"power"`
	NsPerOp int64  `json:"ns_per_op"`
}

type report struct {
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`

	// Prepare times the quick-mode GENESIS preparation of all three
	// networks three ways: pinned serial, parallel (the new default), and
	// warm from the content-addressed report cache. WarmTrainEpochs proves
	// the warm runs performed zero training. The parallel speedup scales
	// with GOMAXPROCS; on a 1-CPU runner it is ~1x by construction.
	Prepare struct {
		GOMAXPROCS      int     `json:"gomaxprocs"`
		SerialNsPerOp   int64   `json:"serial_ns_per_op"`
		ParallelNsPerOp int64   `json:"parallel_ns_per_op"`
		WarmNsPerOp     int64   `json:"warm_ns_per_op"`
		ParallelSpeedup float64 `json:"parallel_speedup"`
		WarmSpeedup     float64 `json:"warm_speedup"`
		WarmTrainEpochs int64   `json:"warm_train_epochs"`
		Iterations      int     `json:"iterations"`
	} `json:"prepare"`

	Fig9 struct {
		BeforeNsPerOp int64      `json:"before_ns_per_op"`
		AfterNsPerOp  int64      `json:"after_ns_per_op"`
		Speedup       float64    `json:"speedup"`
		Iterations    int        `json:"iterations"`
		Cells         []cellTime `json:"cells"`
	} `json:"fig9"`

	Campaign struct {
		// BeforeNsPerOp re-measures the pre-fork path (ForceScratch) at the
		// same sweep coverage; PR3NsPerOp is the value recorded by the
		// previous perf PR on the reference machine.
		BeforeNsPerOp int64   `json:"before_ns_per_op"`
		AfterNsPerOp  int64   `json:"after_ns_per_op"`
		Speedup       float64 `json:"speedup"`
		PR3NsPerOp    int64   `json:"pr3_ns_per_op"`
		Iterations    int     `json:"iterations"`
	} `json:"intermittest_campaign"`

	// Fleet is the campaign engine's device throughput: one mixed-runtime,
	// mixed-power tiny-model fleet swept at 1, 4, and GOMAXPROCS workers.
	// Deterministic records that every worker count produced bit-identical
	// aggregates. ScalingAt4 (measured only when GOMAXPROCS >= 4) is the
	// fraction of linear speedup at 4 workers; on a 1-CPU runner extra
	// workers just take turns, so it is ~1/4 by construction and unscored.
	Fleet struct {
		GOMAXPROCS    int          `json:"gomaxprocs"`
		Devices       int          `json:"devices"`
		Iterations    int          `json:"iterations"`
		Workers       []fleetPoint `json:"workers"`
		ScalingAt4    float64      `json:"scaling_at_4,omitempty"`
		Deterministic bool         `json:"deterministic"`
	} `json:"fleet"`

	// Tape is single-worker fleet throughput on the op-tape executors, the
	// purest per-device simulation cost. It sweeps the real evaluation
	// networks (mnist, har, okg) rather than the synthetic tiny model: the
	// tiny fleet is dominated by per-device fixed costs (construction,
	// deployment, trace analysis), while the real networks carry the MAC
	// volume the pre-decoded tables and fused kernels accelerate.
	Tape struct {
		FleetDevices       int      `json:"fleet_devices"`
		FleetNets          []string `json:"fleet_nets"`
		FleetTapeDevPerSec float64  `json:"fleet_tape_devices_per_sec"`
		Iterations         int      `json:"iterations"`
	} `json:"tape"`

	// Kernels A/Bs the fused bulk-loop kernels against the scalar
	// op-by-op path (Device.NoFuse) — both sides run the same tape
	// executors, so the ratio isolates the fused fast path alone. Paired
	// alternating min-of-K, and the speedup only counts on bit-identical
	// results (every Fig. 9 cell, and
	// the fleet summary byte-for-byte). FleetWorkers reports the fused
	// tape fleet's devices/sec at 1 and 4 workers.
	Kernels struct {
		Fig9ScalarNsPerOp    int64        `json:"fig9_scalar_ns_per_op"`
		Fig9FusedNsPerOp     int64        `json:"fig9_fused_ns_per_op"`
		Fig9Speedup          float64      `json:"fig9_speedup"`
		FleetDevices         int          `json:"fleet_devices"`
		FleetNets            []string     `json:"fleet_nets"`
		FleetScalarDevPerSec float64      `json:"fleet_scalar_devices_per_sec"`
		FleetFusedDevPerSec  float64      `json:"fleet_fused_devices_per_sec"`
		FleetSpeedup         float64      `json:"fleet_speedup"`
		FleetWorkers         []fleetPoint `json:"fleet_workers"`
		PR7FleetDevPerSec    float64      `json:"pr7_fleet_tape_devices_per_sec"`
		Identical            bool         `json:"identical"`
		Iterations           int          `json:"iterations"`
	} `json:"kernels"`

	// Provision A/Bs pooled COW provisioning against per-device fresh
	// deploys on the real networks, two ways. The fleet pair is the same
	// 600-device sweep with Spec.Fresh flipped (fused tape on both sides): the end-to-end effect of device reuse,
	// bounded by how small a slice of a device's wall time provisioning
	// is once the bulk flash made fresh deploys cheap (Amdahl). The prov
	// pair isolates the provisioning path itself — a fresh mcu.New +
	// core.Deploy per device versus a pool-slot COW restore-in-place +
	// Reprovision — which is the subsystem this layer replaces and where
	// the >= 1.3x bar is asserted (measured around two orders of
	// magnitude). Identical records that the fleet sides' summaries were
	// byte-equal — pooling only counts on identical results. The page
	// counters are the pooled fleet's restore traffic: Skipped pages
	// belong to regions inference never wrote (weights, index tables),
	// the dirty-region tracking's whole point.
	Provision struct {
		FleetDevices        int      `json:"fleet_devices"`
		FleetNets           []string `json:"fleet_nets"`
		FreshDevPerSec      float64  `json:"fleet_fresh_devices_per_sec"`
		PooledDevPerSec     float64  `json:"fleet_pooled_devices_per_sec"`
		FleetSpeedup        float64  `json:"fleet_speedup"`
		ProvDevices         int      `json:"provision_devices"`
		ProvFreshDevPerSec  float64  `json:"provision_fresh_devices_per_sec"`
		ProvPooledDevPerSec float64  `json:"provision_pooled_devices_per_sec"`
		ProvSpeedup         float64  `json:"provision_speedup"`
		Restores            int64    `json:"restores"`
		PagesCopied         int64    `json:"pages_copied"`
		PagesClean          int64    `json:"pages_clean"`
		PagesSkipped        int64    `json:"pages_skipped"`
		PR8FleetDevPerSec   float64  `json:"pr8_fleet_tape_devices_per_sec"`
		Identical           bool     `json:"identical"`
		Iterations          int      `json:"iterations"`
	} `json:"provision"`

	// Sparse is the sparse row-walk + op-path PR's section. The fleet
	// figures restate the tape sweep's minimum against BENCH_PR9's
	// recorded throughput (the >= 1.3x bar is asserted in-binary, on
	// byte-identical summaries enforced by the paired harness). The layer
	// figure times the CSR row walk itself: a synthetic sparse-heavy
	// model — one large SparseDense layer holding nearly all the work —
	// run on SONIC (compiled row-span trains through kern.CSRSpans).
	Sparse struct {
		FleetDevices       int     `json:"fleet_devices"`
		FleetTapeDevPerSec float64 `json:"fleet_tape_devices_per_sec"`
		PR9FleetDevPerSec  float64 `json:"pr9_fleet_tape_devices_per_sec"`
		FleetGain          float64 `json:"fleet_gain_vs_pr9"`
		LayerRows          int     `json:"layer_rows"`
		LayerCols          int     `json:"layer_cols"`
		LayerNonzeros      int     `json:"layer_nonzeros"`
		LayerTapeNsPerOp   int64   `json:"layer_tape_ns_per_op"`
		Iterations         int     `json:"iterations"`
	} `json:"sparse"`
}

type fleetPoint struct {
	Workers       int     `json:"workers"`
	NsPerOp       int64   `json:"ns_per_op"`
	DevicesPerSec float64 `json:"devices_per_sec"`
}

var profiler = prof.RegisterFlags()

func main() {
	var (
		out   = flag.String("out", "BENCH_PR10.json", "output JSON path")
		count = flag.Int("count", 3, "timed iterations per workload")
		seed  = flag.Uint64("seed", 1, "model seed")
	)
	flag.Parse()
	if err := profiler.Start(); err != nil {
		fail(err)
	}
	defer profiler.Stop()

	var rep report
	rep.GoVersion = runtime.Version()
	rep.GOARCH = runtime.GOARCH

	// Preparation pipeline: quick-mode PrepareAll, serial vs parallel vs
	// warm-cache. The parallel run's last result doubles as the Fig. 9
	// model set (parallel ≡ serial, per TestGenesisParallelDeterministic).
	rep.Prepare.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Prepare.Iterations = *count

	fmt.Fprintf(os.Stderr, "bench: PrepareAll (serial) × %d...\n", *count)
	start := time.Now()
	for i := 0; i < *count; i++ {
		if _, err := harness.PrepareAll(harness.PrepareOptions{
			Seed: *seed, Quick: true, ForceSerial: true}); err != nil {
			fail(err)
		}
	}
	rep.Prepare.SerialNsPerOp = time.Since(start).Nanoseconds() / int64(*count)

	fmt.Fprintf(os.Stderr, "bench: PrepareAll (parallel) × %d...\n", *count)
	var prepped []*harness.Prepared
	start = time.Now()
	for i := 0; i < *count; i++ {
		var err error
		if prepped, err = harness.PrepareAll(harness.PrepareOptions{
			Seed: *seed, Quick: true}); err != nil {
			fail(err)
		}
	}
	rep.Prepare.ParallelNsPerOp = time.Since(start).Nanoseconds() / int64(*count)
	rep.Prepare.ParallelSpeedup = float64(rep.Prepare.SerialNsPerOp) / float64(rep.Prepare.ParallelNsPerOp)

	cacheDir, err := os.MkdirTemp("", "bench-report-cache-")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(cacheDir)
	warmPO := harness.PrepareOptions{Seed: *seed, Quick: true, CacheDir: cacheDir}
	if _, err := harness.PrepareAll(warmPO); err != nil { // populate the cache
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "bench: PrepareAll (warm cache) × %d...\n", *count)
	epochsBefore := dnn.EpochsRun()
	start = time.Now()
	for i := 0; i < *count; i++ {
		warm, err := harness.PrepareAll(warmPO)
		if err != nil {
			fail(err)
		}
		for _, p := range warm {
			if !p.CacheHit {
				fail(fmt.Errorf("warm run missed the report cache for %s", p.Net))
			}
		}
	}
	rep.Prepare.WarmNsPerOp = time.Since(start).Nanoseconds() / int64(*count)
	rep.Prepare.WarmSpeedup = float64(rep.Prepare.SerialNsPerOp) / float64(rep.Prepare.WarmNsPerOp)
	rep.Prepare.WarmTrainEpochs = dnn.EpochsRun() - epochsBefore
	if rep.Prepare.WarmTrainEpochs != 0 {
		fail(fmt.Errorf("warm-cache runs performed %d training epochs, want 0",
			rep.Prepare.WarmTrainEpochs))
	}
	// Fig. 9 matrix: GENESIS preparation is untimed (as in BenchmarkFig9);
	// the timed region is the full 72-cell measurement.
	fmt.Fprintf(os.Stderr, "bench: Fig. 9 matrix × %d...\n", *count)
	start = time.Now()
	for i := 0; i < *count; i++ {
		if _, err := harness.RunAll(prepped); err != nil {
			fail(err)
		}
	}
	rep.Fig9.BeforeNsPerOp = preBulkFig9NsPerOp
	rep.Fig9.AfterNsPerOp = time.Since(start).Nanoseconds() / int64(*count)
	rep.Fig9.Speedup = float64(preBulkFig9NsPerOp) / float64(rep.Fig9.AfterNsPerOp)
	rep.Fig9.Iterations = *count

	// Per-cell breakdown, one measurement each: where the time goes.
	for _, p := range prepped {
		input := p.Model.QuantizeInput(p.Input)
		for _, rt := range harness.Runtimes() {
			for _, pw := range harness.Powers() {
				t0 := time.Now()
				if _, err := harness.Measure(p.Net, p.Model, rt, pw, input); err != nil {
					fail(err)
				}
				rep.Fig9.Cells = append(rep.Fig9.Cells, cellTime{
					Net: p.Net, Runtime: rt.Name(), Power: pw.Name,
					NsPerOp: time.Since(t0).Nanoseconds(),
				})
			}
		}
	}

	// Intermittence fuzz campaign, as CI runs it: every runtime plus the
	// two negative controls, WAR shadow armed. Measured twice at identical
	// sweep coverage — once with ForceScratch (the pre-fork path) and once
	// with snapshot-and-fork — so the speedup is apples-to-apples on this
	// machine, independent of the recorded PR3 reference value.
	qm, x := intermittest.TinyModel(*seed)
	rts := append(harness.Runtimes(),
		core.Runtime(checkpoint.Checkpoint{Interval: 8}), intermittest.Broken{})

	fmt.Fprintf(os.Stderr, "bench: intermittest campaign (from-scratch) × %d...\n", *count)
	scratchOpt := intermittest.Options{Seed: *seed, CheckWAR: true, ForceScratch: true}
	start = time.Now()
	for i := 0; i < *count; i++ {
		if _, err := intermittest.Campaign(qm, x, rts, scratchOpt); err != nil {
			fail(err)
		}
	}
	rep.Campaign.BeforeNsPerOp = time.Since(start).Nanoseconds() / int64(*count)

	fmt.Fprintf(os.Stderr, "bench: intermittest campaign (snapshot-and-fork) × %d...\n", *count)
	opt := intermittest.Options{Seed: *seed, CheckWAR: true}
	var last *intermittest.Report
	start = time.Now()
	for i := 0; i < *count; i++ {
		r, err := intermittest.Campaign(qm, x, rts, opt)
		if err != nil {
			fail(err)
		}
		last = r
	}
	rep.Campaign.AfterNsPerOp = time.Since(start).Nanoseconds() / int64(*count)
	rep.Campaign.Speedup = float64(rep.Campaign.BeforeNsPerOp) / float64(rep.Campaign.AfterNsPerOp)
	rep.Campaign.PR3NsPerOp = preForkCampaignNsPerOp
	rep.Campaign.Iterations = *count

	// The speedup only counts if the fast path kept the oracle's teeth:
	// the WAR-broken negative control must stay flagged at every boundary.
	for _, rr := range last.Runtimes {
		if rr.Runtime == "broken" && len(rr.WARBounds) != rr.Swept {
			fail(fmt.Errorf("broken flagged at %d of %d boundaries — fast path lost coverage",
				len(rr.WARBounds), rr.Swept))
		}
	}

	// Fleet engine throughput: the same campaign shape the fleet tests
	// sweep, timed at each worker count with a determinism cross-check
	// (summaries must be byte-identical across worker counts).
	const fleetDevices = 5000
	fleetModels := map[string]fleet.Model{
		"tiny": {Net: "tiny", QM: qm, Input: qm.QuantizeInput(x)}}
	fleetSpec := fleet.Spec{
		Devices:  fleetDevices,
		Seed:     *seed,
		Models:   []string{"tiny"},
		Runtimes: []string{"base", "tile-32", "sonic", "tails"},
		Powers: []fleet.PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "stoch-100uF", SystemSpec: energy.SystemSpec{Kind: "stoch", CapFarads: 100e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
	rep.Fleet.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Fleet.Devices = fleetDevices
	rep.Fleet.Iterations = *count
	rep.Fleet.Deterministic = true
	workerCounts := []int{1, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 4 {
		workerCounts = append(workerCounts, g)
	}
	var baselineSummary []byte
	perWorkerNs := make(map[int]int64)
	for _, w := range workerCounts {
		fmt.Fprintf(os.Stderr, "bench: fleet campaign (%d devices, %d workers) × %d...\n",
			fleetDevices, w, *count)
		start = time.Now()
		var res *fleet.Result
		for i := 0; i < *count; i++ {
			var err error
			if res, err = fleet.Run(context.Background(), fleetSpec, fleetModels, w); err != nil {
				fail(err)
			}
		}
		ns := time.Since(start).Nanoseconds() / int64(*count)
		perWorkerNs[w] = ns
		rep.Fleet.Workers = append(rep.Fleet.Workers, fleetPoint{
			Workers: w, NsPerOp: ns,
			DevicesPerSec: float64(fleetDevices) / (float64(ns) / 1e9),
		})
		sum, err := json.Marshal(res.Agg.Summary())
		if err != nil {
			fail(err)
		}
		if baselineSummary == nil {
			baselineSummary = sum
		} else if string(sum) != string(baselineSummary) {
			fail(fmt.Errorf("fleet aggregates at %d workers differ from the 1-worker baseline", w))
		}
	}
	// Tape fleet throughput at one worker — the purest per-device
	// simulation cost — on the real evaluation networks (the tiny fleet
	// above is all fixed per-device overhead). Min-of-K, with every
	// round's summary byte-identical to the first.
	const realFleetDevices = 600
	realModels := make(map[string]fleet.Model, len(prepped))
	var realNets []string
	for _, p := range prepped {
		realModels[p.Net] = fleet.Model{Net: p.Net, QM: p.Model, Input: p.Model.QuantizeInput(p.Input)}
		realNets = append(realNets, p.Net)
	}
	tapeSpec := fleet.Spec{
		Devices:  realFleetDevices,
		Seed:     *seed,
		Models:   realNets,
		Runtimes: []string{"tile-32", "sonic", "tails"},
		Powers: []fleet.PowerClass{
			{Name: "rf-100uF", SystemSpec: energy.SystemSpec{Kind: "const", CapFarads: 100e-6}},
			{Name: "cont", SystemSpec: energy.SystemSpec{Kind: "cont"}},
		},
	}
	fmt.Fprintf(os.Stderr, "bench: fleet campaign (%d real-network devices, 1 worker) × %d...\n",
		realFleetDevices, *count)
	var realSummary []byte
	realMins, _ := pairedFleetMin(*count, 1, realModels, &realSummary, tapeSpec)
	rep.Tape.FleetDevices = realFleetDevices
	rep.Tape.FleetNets = realNets
	rep.Tape.FleetTapeDevPerSec = float64(realFleetDevices) / realMins[0].Seconds()
	rep.Tape.Iterations = *count

	// Fused kernels vs scalar: the Fig. 9 matrix through Measure vs
	// MeasureScalar, and the real-network fleet with Spec.NoFuse flipped.
	// Paired alternating min-of-K, bit-identical results required.
	matrixMeasured := func(rts []core.Runtime, scalar bool) (time.Duration, []harness.RunResult) {
		mfn := harness.Measure
		if scalar {
			mfn = harness.MeasureScalar
		}
		var results []harness.RunResult
		start := time.Now()
		for _, p := range prepped {
			input := p.Model.QuantizeInput(p.Input)
			for _, rt := range rts {
				for _, pw := range harness.Powers() {
					res, err := mfn(p.Net, p.Model, rt, pw, input)
					if err != nil {
						fail(err)
					}
					results = append(results, res)
				}
			}
		}
		return time.Since(start), results
	}
	fmt.Fprintf(os.Stderr, "bench: Fig. 9 matrix fused vs scalar, paired × %d...\n", *count)
	var minFig9Fused, minFig9Scalar time.Duration
	for i := 0; i < *count; i++ {
		dS, resS := matrixMeasured(harness.Runtimes(), true)
		dF, resF := matrixMeasured(harness.Runtimes(), false)
		if !reflect.DeepEqual(resS, resF) {
			fail(fmt.Errorf("fused kernels changed Fig. 9 results — bit-exactness broken"))
		}
		if i == 0 || dS < minFig9Scalar {
			minFig9Scalar = dS
		}
		if i == 0 || dF < minFig9Fused {
			minFig9Fused = dF
		}
	}
	rep.Kernels.Fig9ScalarNsPerOp = minFig9Scalar.Nanoseconds()
	rep.Kernels.Fig9FusedNsPerOp = minFig9Fused.Nanoseconds()
	rep.Kernels.Fig9Speedup = float64(minFig9Scalar) / float64(minFig9Fused)

	scalarTapeSpec := tapeSpec
	scalarTapeSpec.NoFuse = true
	fmt.Fprintf(os.Stderr, "bench: fleet campaign fused vs scalar (%d real-network devices, 1 worker), paired × %d...\n",
		realFleetDevices, *count)
	kernelMins, _ := pairedFleetMin(*count, 1, realModels, &realSummary, scalarTapeSpec, tapeSpec)
	minFleetScalar, minFleetFused := kernelMins[0], kernelMins[1]
	rep.Kernels.FleetDevices = realFleetDevices
	rep.Kernels.FleetNets = realNets
	rep.Kernels.FleetScalarDevPerSec = float64(realFleetDevices) / minFleetScalar.Seconds()
	rep.Kernels.FleetFusedDevPerSec = float64(realFleetDevices) / minFleetFused.Seconds()
	rep.Kernels.FleetSpeedup = float64(minFleetScalar) / float64(minFleetFused)
	rep.Kernels.PR7FleetDevPerSec = pr7FleetTapeDevPerSec
	rep.Kernels.Identical = true
	rep.Kernels.Iterations = *count

	// Fused tape fleet at 1 and 4 workers: the throughput a campaign
	// actually sees. The 1-worker point reuses the paired minimum above;
	// 4 workers is measured here (byte-identical summary again required).
	rep.Kernels.FleetWorkers = append(rep.Kernels.FleetWorkers, fleetPoint{
		Workers: 1, NsPerOp: minFleetFused.Nanoseconds(),
		DevicesPerSec: rep.Kernels.FleetFusedDevPerSec,
	})
	fmt.Fprintf(os.Stderr, "bench: fleet campaign fused (%d real-network devices, 4 workers) × %d...\n",
		realFleetDevices, *count)
	fused4Mins, _ := pairedFleetMin(*count, 4, realModels, &realSummary, tapeSpec)
	minFleetFused4 := fused4Mins[0]
	rep.Kernels.FleetWorkers = append(rep.Kernels.FleetWorkers, fleetPoint{
		Workers: 4, NsPerOp: minFleetFused4.Nanoseconds(),
		DevicesPerSec: float64(realFleetDevices) / minFleetFused4.Seconds(),
	})

	// Pooled COW provisioning vs per-device fresh deploys, fused tape on
	// both sides. Paired alternating min-of-K: each round runs the fresh
	// fleet then the pooled fleet under the same machine conditions.
	freshTapeSpec := tapeSpec
	freshTapeSpec.Fresh = true
	fmt.Fprintf(os.Stderr, "bench: fleet campaign fresh vs pooled provisioning (%d real-network devices, 1 worker), paired × %d...\n",
		realFleetDevices, *count)
	provMins, provBest := pairedFleetMin(*count, 1, realModels, &realSummary, freshTapeSpec, tapeSpec)
	minFleetFresh, minFleetPooled := provMins[0], provMins[1]
	if provBest[0].Provision.FreshDeploys != realFleetDevices || provBest[1].Provision.Restores != realFleetDevices {
		fail(fmt.Errorf("provisioning counters off: fresh %+v pooled %+v",
			provBest[0].Provision, provBest[1].Provision))
	}
	pooledProv := provBest[1].Provision
	rep.Provision.FleetDevices = realFleetDevices
	rep.Provision.FleetNets = realNets
	rep.Provision.FreshDevPerSec = float64(realFleetDevices) / minFleetFresh.Seconds()
	rep.Provision.PooledDevPerSec = float64(realFleetDevices) / minFleetPooled.Seconds()
	rep.Provision.FleetSpeedup = float64(minFleetFresh) / float64(minFleetPooled)
	rep.Provision.Restores = pooledProv.Restores
	rep.Provision.PagesCopied = pooledProv.PagesCopied
	rep.Provision.PagesClean = pooledProv.PagesClean
	rep.Provision.PagesSkipped = pooledProv.PagesSkipped
	rep.Provision.PR8FleetDevPerSec = pr8FleetTapeDevPerSec
	rep.Provision.Identical = true
	rep.Provision.Iterations = *count

	// The provisioning path in isolation on the same networks: making one
	// device simulation-ready, with inference out of the picture. The
	// fresh arm is exactly what fleet.simulate pays per device without
	// pooling (a full mcu.New + core.Deploy); the pooled arm is the
	// steady-state pool path (restore-in-place into a warm slot). Paired
	// alternating min-of-K again.
	const provDevices = 300
	fmt.Fprintf(os.Stderr, "bench: provisioning path fresh vs pooled (%d devices × %d real networks), paired × %d...\n",
		provDevices, len(realNets), *count)
	slots := make(map[string]*fleet.Slot, len(realNets))
	for _, net := range realNets {
		proto, err := fleet.NewPrototype(realModels[net])
		if err != nil {
			fail(err)
		}
		sl, err := fleet.NewSlot(proto)
		if err != nil {
			fail(err)
		}
		slots[net] = sl
	}
	var minProvFresh, minProvPooled time.Duration
	var provStats fleet.ProvisionStats
	for i := 0; i < *count; i++ {
		t0 := time.Now()
		for _, net := range realNets {
			m := realModels[net]
			for j := 0; j < provDevices; j++ {
				dev := mcu.New(energy.Continuous{})
				if _, err := core.Deploy(dev, m.QM); err != nil {
					fail(err)
				}
			}
		}
		dF := time.Since(t0)
		t0 = time.Now()
		for _, net := range realNets {
			sl := slots[net]
			for j := 0; j < provDevices; j++ {
				if err := sl.Provision(energy.Continuous{}, false, &provStats); err != nil {
					fail(err)
				}
			}
		}
		dP := time.Since(t0)
		if i == 0 || dF < minProvFresh {
			minProvFresh = dF
		}
		if i == 0 || dP < minProvPooled {
			minProvPooled = dP
		}
	}
	nProv := provDevices * len(realNets)
	rep.Provision.ProvDevices = nProv
	rep.Provision.ProvFreshDevPerSec = float64(nProv) / minProvFresh.Seconds()
	rep.Provision.ProvPooledDevPerSec = float64(nProv) / minProvPooled.Seconds()
	rep.Provision.ProvSpeedup = float64(minProvFresh) / float64(minProvPooled)

	// Sparse row-walk section. The fleet side restates the tape sweep's
	// minimum (measured above, byte-identical summaries enforced) against
	// BENCH_PR9's recorded figure. The layer figure times the row walk on
	// a model that is almost entirely one big SparseDense layer, at
	// continuous power, with reps batched per timed round to stay well
	// above timer resolution.
	qmSparse, xSparse := sparseHeavyModel(*seed)
	qs := &qmSparse.Layers[0]
	inputSparse := qmSparse.QuantizeInput(xSparse)
	contPow := harness.Powers()[0]
	const sparseReps = 50
	fmt.Fprintf(os.Stderr, "bench: sparse layer (SONIC, %dx%d, %d nonzeros) × %d...\n",
		qs.Out, qs.In, int(qs.RowPtr[qs.Out]), *count)
	var minLayer time.Duration
	for i := 0; i < *count; i++ {
		start := time.Now()
		for r := 0; r < sparseReps; r++ {
			if _, err := harness.Measure("sparse-heavy", qmSparse, sonic.SONIC{}, contPow, inputSparse); err != nil {
				fail(err)
			}
		}
		if d := time.Since(start); i == 0 || d < minLayer {
			minLayer = d
		}
	}
	rep.Sparse.FleetDevices = realFleetDevices
	rep.Sparse.FleetTapeDevPerSec = rep.Tape.FleetTapeDevPerSec
	rep.Sparse.PR9FleetDevPerSec = pr9FleetTapeDevPerSec
	rep.Sparse.FleetGain = rep.Tape.FleetTapeDevPerSec / pr9FleetTapeDevPerSec
	rep.Sparse.LayerRows = qs.Out
	rep.Sparse.LayerCols = qs.In
	rep.Sparse.LayerNonzeros = int(qs.RowPtr[qs.Out])
	rep.Sparse.LayerTapeNsPerOp = minLayer.Nanoseconds() / sparseReps
	rep.Sparse.Iterations = *count

	// The fused kernels exist to be faster; a regression fails the bench
	// outright.
	if rep.Kernels.FleetSpeedup <= 1.0 {
		fail(fmt.Errorf("fused fleet sweep is not faster than scalar (%.2fx)", rep.Kernels.FleetSpeedup))
	}
	// The fused-kernel PR's headline: the tape fleet sweep (now fused by
	// default) must at least double the throughput BENCH_PR7 recorded.
	if rep.Tape.FleetTapeDevPerSec < 2*pr7FleetTapeDevPerSec {
		fail(fmt.Errorf("tape fleet sweep at %.0f devices/sec, want >= 2x PR7's %.0f",
			rep.Tape.FleetTapeDevPerSec, pr7FleetTapeDevPerSec))
	}
	// The provisioning PR's headline: on the real networks, provisioning a
	// pooled device must beat the fresh mcu.New + core.Deploy path by
	// >= 1.3x devices/sec on identical fleet results (byte-equality
	// enforced above). Measured around two orders of magnitude; the bar
	// is deliberately far below it so noise cannot flake the build.
	if rep.Provision.ProvSpeedup < 1.3 {
		fail(fmt.Errorf("pooled provisioning path at %.2fx over fresh deploys, want >= 1.3x",
			rep.Provision.ProvSpeedup))
	}
	// End-to-end, pooling must never cost fleet throughput. The sweep is
	// inference-bound (the isolated ratio shrinks through Amdahl to a
	// ~1.1x end-to-end gain), so guard against regression at the noise
	// floor rather than asserting the gain itself.
	if rep.Provision.FleetSpeedup < 0.9 {
		fail(fmt.Errorf("pooled fleet at %.2fx of fresh-deploy throughput: pooling regressed the sweep",
			rep.Provision.FleetSpeedup))
	}
	if rep.Provision.PagesSkipped == 0 {
		fail(fmt.Errorf("pooled restores skipped no pages: dirty-region tracking inert"))
	}
	// The sparse PR's headline: the tape fleet sweep must clear 1.3x the
	// throughput BENCH_PR9 recorded, on byte-identical summaries.
	if rep.Sparse.FleetGain < 1.3 {
		fail(fmt.Errorf("tape fleet sweep at %.0f devices/sec is %.2fx of PR9's %.0f, want >= 1.3x",
			rep.Sparse.FleetTapeDevPerSec, rep.Sparse.FleetGain, pr9FleetTapeDevPerSec))
	}

	// Scaling is only meaningful with real parallel hardware: on >=4 CPUs,
	// 4 workers must deliver at least half of linear speedup over 1.
	if runtime.GOMAXPROCS(0) >= 4 {
		rep.Fleet.ScalingAt4 = float64(perWorkerNs[1]) / float64(perWorkerNs[4]) / 4
		if rep.Fleet.ScalingAt4 < 0.5 {
			fail(fmt.Errorf("fleet scaling at 4 workers is %.2fx of linear, want >= 0.5x",
				rep.Fleet.ScalingAt4))
		}
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("prepare: serial %.3fs parallel %.3fs (%.2fx, GOMAXPROCS=%d) warm %.3fs (%.2fx, 0 epochs)\n",
		float64(rep.Prepare.SerialNsPerOp)/1e9,
		float64(rep.Prepare.ParallelNsPerOp)/1e9, rep.Prepare.ParallelSpeedup,
		rep.Prepare.GOMAXPROCS,
		float64(rep.Prepare.WarmNsPerOp)/1e9, rep.Prepare.WarmSpeedup)
	fmt.Printf("fig9: %.3fs/op (%.2fx over pre-bulk %.3fs)  campaign: %.3fs/op (%.2fx over from-scratch %.3fs)\n",
		float64(rep.Fig9.AfterNsPerOp)/1e9, rep.Fig9.Speedup,
		float64(preBulkFig9NsPerOp)/1e9,
		float64(rep.Campaign.AfterNsPerOp)/1e9, rep.Campaign.Speedup,
		float64(rep.Campaign.BeforeNsPerOp)/1e9)
	for _, p := range rep.Fleet.Workers {
		fmt.Printf("fleet: %d devices @ %d workers: %.0f devices/sec\n",
			rep.Fleet.Devices, p.Workers, p.DevicesPerSec)
	}
	fmt.Printf("tape: fleet %d real-network devices @ 1 worker: %.0f devices/sec  sparse layer %.3fms/op\n",
		rep.Tape.FleetDevices, rep.Tape.FleetTapeDevPerSec, float64(rep.Sparse.LayerTapeNsPerOp)/1e6)
	fmt.Printf("kernels: fig9 %.3fs -> %.3fs (%.2fx)  fleet %.0f -> %.0f devices/sec (%.2fx)  identical=%v\n",
		float64(rep.Kernels.Fig9ScalarNsPerOp)/1e9, float64(rep.Kernels.Fig9FusedNsPerOp)/1e9,
		rep.Kernels.Fig9Speedup,
		rep.Kernels.FleetScalarDevPerSec, rep.Kernels.FleetFusedDevPerSec, rep.Kernels.FleetSpeedup,
		rep.Kernels.Identical)
	for _, p := range rep.Kernels.FleetWorkers {
		fmt.Printf("kernels: fused fleet %d devices @ %d workers: %.0f devices/sec\n",
			rep.Kernels.FleetDevices, p.Workers, p.DevicesPerSec)
	}
	fmt.Printf("provision: path %.0f -> %.0f devices/sec (%.1fx)  fleet %.0f -> %.0f devices/sec (%.2fx, PR8 recorded %.0f)  pages copied/clean/skipped %d/%d/%d  identical=%v\n",
		rep.Provision.ProvFreshDevPerSec, rep.Provision.ProvPooledDevPerSec, rep.Provision.ProvSpeedup,
		rep.Provision.FreshDevPerSec, rep.Provision.PooledDevPerSec, rep.Provision.FleetSpeedup,
		rep.Provision.PR8FleetDevPerSec,
		rep.Provision.PagesCopied, rep.Provision.PagesClean, rep.Provision.PagesSkipped,
		rep.Provision.Identical)
	fmt.Printf("fleet: deterministic across worker counts: %v  -> %s\n",
		rep.Fleet.Deterministic, *out)
}

// pairedFleetMin is the shared paired alternating min-of-K harness for
// fleet A/Bs: each round times one sweep per spec, in order, so every
// spec sees the same machine conditions within a round, and the minimum
// over rounds discards scheduler and thermal noise that an averaged
// back-to-back comparison folds into the ratio. Every sweep's aggregate
// summary must be byte-identical to *baseline (seeded from the first
// sweep when nil) — a speedup can never come from changed results.
// Returns each spec's minimum duration and the fleet result from its
// fastest round.
func pairedFleetMin(count, workers int, models map[string]fleet.Model, baseline *[]byte, specs ...fleet.Spec) ([]time.Duration, []*fleet.Result) {
	mins := make([]time.Duration, len(specs))
	best := make([]*fleet.Result, len(specs))
	for i := 0; i < count; i++ {
		for j := range specs {
			t0 := time.Now()
			res, err := fleet.Run(context.Background(), specs[j], models, workers)
			if err != nil {
				fail(err)
			}
			d := time.Since(t0)
			sum, err := json.Marshal(res.Agg.Summary())
			if err != nil {
				fail(err)
			}
			if *baseline == nil {
				*baseline = sum
			} else if string(sum) != string(*baseline) {
				fail(fmt.Errorf("fleet summary diverged from the baseline — bit-exactness broken"))
			}
			if i == 0 || d < mins[j] {
				mins[j] = d
				best[j] = res
			}
		}
	}
	return mins, best
}

// sparseHeavyModel builds the sparse-layer A/B's synthetic workload: a
// 512-wide SparseDense layer at ~8% average density with naturally varied
// row lengths — empty rows through double-average rows, as GENESIS-pruned
// layers produce — followed by a small dense head, so the charged work is
// dominated by the CSR row walk under test. Kept weights get solid
// magnitudes so quantization retains the crafted structure.
func sparseHeavyModel(seed uint64) (*dnn.QuantModel, []float64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	const in, out = 512, 512
	avg := in * 8 / 100
	d := dnn.NewDense(rng, out, in)
	wd := d.W.Data()
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			wd[o*in+i] = (rng.Float64() - 0.5) * 0.01
		}
		for _, c := range rng.Perm(in)[:rng.IntN(2*avg+1)] {
			v := 0.3 + rng.Float64()*0.6
			if rng.IntN(2) == 0 {
				v = -v
			}
			wd[o*in+c] = v
		}
	}
	n := dnn.NewNetwork("sparse-heavy", dnn.Shape{1, 1, in})
	n.Add(d, dnn.NewReLU(), dnn.NewDense(rng, 4, out))
	n.Layers[0] = dnn.NewSparseDense(d, 0.1)
	x := make([]float64, in)
	for i := range x {
		x[i] = rng.Float64()*1.6 - 0.8
	}
	qm, err := dnn.Quantize(n, [][]float64{x})
	if err != nil {
		fail(fmt.Errorf("sparse-heavy model does not quantize: %w", err))
	}
	if qm.Layers[0].Kind != dnn.QSparseDense {
		fail(fmt.Errorf("sparse-heavy layer did not stay sparse"))
	}
	return qm, x
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	profiler.Stop()
	os.Exit(1)
}
