package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/dnn"
	"repro/internal/genesis"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// Cold-path golden digests. They pin the exact floating-point results of
// the host numerics behind model preparation: training, GENESIS
// separation (SeparateDense, SeparateConvSpatial, SeparateConvTucker2 via
// the Jacobi SVD and HOOI), fine-tuning and quantization. A change that
// reorders a single floating-point operation on the cold path moves at
// least one of them.
//
// These constants were captured before the cold-path numerics were
// rewritten for speed and must never be regenerated to make a change
// pass: a mismatch means results changed. TestGenesisParallelDeterministic
// only compares parallel against serial on the same build, so it cannot
// catch a change in operation order; this test can.
var coldPathGolden = map[string]string{
	"mnist":              "6c7cea21873313fe50f56816d71f3e19b8c273b361e3c841d2818472a7cf1268",
	"har":                "2be6027e4948326e8ed585dd6fb1a1c16aeb43215245f0d1bf200010d5ec8d9e",
	"okg":                "b9a5c41b5f535761ac772013828cd1fe4c4ead5756169664e25423deca1482c2",
	"svd-96x1008":        "4520e42910bcc46e070212fa9ebf98a13a5ea8490631f42ada07c6018fd64b5b",
	"svd-40x12":          "ffa62ca06f7be042de370520c381904e4eb585bc8c721d658dd581a38d60ff69",
	"svd-40x12-truncate": "44c647f7955a52eb952f8d845382fd7c838da9dd5a2273db00a8fb1c28ab8c60",
	"tucker-6x4x3":       "0cbe0ecf0927bead627a9b847f2ce41d8286acf5dd7bcc838e93dcd31d2ac63a",
}

// floatGolden pins the exact float64 bits of every trainable parameter
// after quick base training of each network and after applying a GENESIS
// configuration and fine-tuning one epoch. The quantized digests above
// only see weights after Q15 rounding, so a reordered float operation that
// happens to round the same would slip past them; these would not. Same
// rule: captured before the training kernels were rewritten for speed,
// never regenerated.
var floatGolden = map[string]string{
	"train-mnist":                    "465425de3ebae037a2b21f2963dfb981018eaf6de29bea4f0919eea9a61edf49",
	"train-har":                      "66f9de5edbbc3ef8e3c4af45cfa2b5d71e09550bb8f17b9ccc63e05f1d897d70",
	"train-okg":                      "c3f554b4c1fb09d978cb28dbf6eb5f15f56719e66e289823396a2b532e70f538",
	"finetune-mnist-sep-r0.50":       "32bcd2d569c2e2b50d4310766bfb38fc33c0c73cb0e945dccaa572279ca2cacd",
	"finetune-mnist-both-0.75-r0.50": "d64008fe7cfeaf2935e37ce75ffe28112aa1f3ea70257b9219d14cbf5789a007",
	"finetune-mnist-prune-0.90":      "a2a29a90d4a36086229543540bc805b22d3e2fab54b910f829673e9e5cf40e84",
	"finetune-har-sep-r0.50":         "e07ea18b3336a549f2c59c18efb5136c176bbe0ccdd672089a1a7adf661ff199",
	"finetune-har-both-0.75-r0.50":   "4fe533af52135242ad1f623e8237e0418577f0bd9c1025a56b0644a5539b147b",
	"finetune-har-prune-0.90":        "0ffcc7045ebeec2fae4901f6fb07eca7aaf40af6cc81cfc2189a6f6066cdb5bf",
	"finetune-okg-sep-r0.50":         "0265db86415aed98cc8821058c82db1f52cbdaa756ffb564b0b99def47177150",
	"finetune-okg-both-0.75-r0.50":   "b4c152392656b53c1003c2da788b8ee6252d170a67390d9e48c59d0827b6acba",
	"finetune-okg-prune-0.90":        "1a9569a78f70705052452eff0fa972ccbcb4d58c699dfc332d29bdca645f3cd2",
}

// floatGoldenConfigs are the GENESIS configurations the fine-tune goldens
// apply: separation alone, separation then pruning, and pruning alone.
var floatGoldenConfigs = []genesis.Config{
	{Technique: genesis.TechSeparate, RankFrac: 0.5},
	{Technique: genesis.TechBoth, PruneLevel: 0.75, RankFrac: 0.5},
	{Technique: genesis.TechPrune, PruneLevel: 0.9, RankFrac: 1},
}

// TestColdPathGolden hashes every field of every GENESIS Result (plus the
// encoding of each result's model) for quick seed-1 preparation of each
// network, and the exact float bits of seeded SVD and HOOI decompositions,
// against the digests above.
func TestColdPathGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go fuses x*y+z into FMA on arm64, ppc64, s390x and riscv64, so
		// the float bits legitimately differ there.
		t.Skipf("cold-path goldens are pinned on amd64, not %s", runtime.GOARCH)
	}
	check := func(t *testing.T, name, got string) {
		t.Helper()
		want, ok := coldPathGolden[name]
		if !ok {
			want = floatGolden[name]
		}
		if got != want {
			t.Errorf("%s digest = %s, want %s (cold-path results changed)", name, got, want)
		}
	}
	for _, net := range Networks() {
		t.Run(net, func(t *testing.T) {
			check(t, net, preparedDigest(t, prepQuick(t, net)))
		})
	}
	for _, net := range Networks() {
		// The quick sweep's training recipe (genesis.Run and its
		// per-config fine-tune), replayed step by step so each stage's
		// float bits can be hashed.
		opts := genesisOptions(net, PrepareOptions{Seed: 1, Quick: true})
		ds, err := dnn.DatasetFor(net, opts.Seed, opts.TrainSamples, opts.TestSamples)
		if err != nil {
			t.Fatal(err)
		}
		base, err := dnn.NetworkFor(net, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dnn.DefaultTrainConfig()
		cfg.Epochs = opts.Epochs
		cfg.Seed = opts.Seed
		cfg.MaxSamplesPerEpoch = opts.MaxSamplesPerEpoch
		loss := dnn.Train(base, ds, cfg)
		t.Run("train-"+net, func(t *testing.T) {
			h := sha256.New()
			writeFloats(h, []float64{loss})
			writeParams(h, base)
			check(t, "train-"+net, hex.EncodeToString(h.Sum(nil)))
		})
		for _, c := range floatGoldenConfigs {
			name := "finetune-" + net + "-" + c.Name()
			t.Run(name, func(t *testing.T) {
				n := base.Clone()
				if err := genesis.Apply(n, c); err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				writeParams(h, n)
				ft := dnn.DefaultTrainConfig()
				ft.Epochs = opts.FineTuneEpochs
				ft.LR = 0.001
				ft.Seed = opts.Seed + 77
				ft.MaxSamplesPerEpoch = opts.MaxSamplesPerEpoch
				writeFloats(h, []float64{dnn.Train(n, ds, ft)})
				writeParams(h, n)
				check(t, name, hex.EncodeToString(h.Sum(nil)))
			})
		}
	}
	t.Run("svd-96x1008", func(t *testing.T) {
		check(t, "svd-96x1008", svdDigest(goldenMatrix(96, 1008, 11)))
	})
	t.Run("svd-40x12", func(t *testing.T) {
		check(t, "svd-40x12", svdDigest(goldenMatrix(40, 12, 12)))
	})
	t.Run("svd-40x12-truncate", func(t *testing.T) {
		d := linalg.Decompose(goldenMatrix(40, 12, 12)).Truncate(5)
		a1, a2 := d.LowRankFactors(3)
		h := sha256.New()
		for _, x := range []*tensor.Tensor{d.U, d.V, d.Reconstruct(), a1, a2} {
			fmt.Fprintf(h, "%v\n", x.Shape())
			writeFloats(h, x.Data())
		}
		writeFloats(h, d.S)
		check(t, "svd-40x12-truncate", hex.EncodeToString(h.Sum(nil)))
	})
	t.Run("tucker-6x4x3", func(t *testing.T) {
		x := tensor.New(6, 4, 3, 3)
		x.RandNormal(rand.New(rand.NewPCG(13, 0)), 1)
		tk := linalg.HOOI(x, []int{3, 2, 3, 3})
		h := sha256.New()
		writeFloats(h, tk.Core.Data())
		for _, f := range tk.Factors {
			writeFloats(h, f.Data())
		}
		fmt.Fprintf(h, "ranks=%v\n", tk.Ranks)
		check(t, "tucker-6x4x3", hex.EncodeToString(h.Sum(nil)))
	})
}

// goldenMatrix returns a seeded m×n Gaussian matrix.
func goldenMatrix(m, n int, seed uint64) *tensor.Tensor {
	a := tensor.New(m, n)
	a.RandNormal(rand.New(rand.NewPCG(seed, 0)), 1)
	return a
}

// svdDigest hashes the exact bits and shapes of a's SVD factors.
func svdDigest(a *tensor.Tensor) string {
	d := linalg.Decompose(a)
	h := sha256.New()
	fmt.Fprintf(h, "U%v S%d V%v\n", d.U.Shape(), len(d.S), d.V.Shape())
	writeFloats(h, d.U.Data())
	writeFloats(h, d.S)
	writeFloats(h, d.V.Data())
	return hex.EncodeToString(h.Sum(nil))
}

// preparedDigest hashes every Result field of p's GENESIS report, the
// encoding of each result's model, the chosen index and the test sample.
func preparedDigest(t *testing.T, p *Prepared) string {
	t.Helper()
	h := sha256.New()
	rep := p.Report
	fmt.Fprintf(h, "dataset=%s chosen=%d results=%d\n", rep.Dataset, rep.Chosen, len(rep.Results))
	for i, r := range rep.Results {
		fmt.Fprintf(h, "%d %s %s prune=%x rank=%x\n", i, r.Config.Name(), r.Config.Technique,
			math.Float64bits(r.Config.PruneLevel), math.Float64bits(r.Config.RankFrac))
		writeFloats(h, []float64{r.Accuracy, r.TP, r.TN, r.EInferJ, r.IMpJ})
		fmt.Fprintf(h, "macs=%d bytes=%d feasible=%t err=%q\n", r.MACs, r.ParamBytes, r.Feasible, r.Err)
		if r.Model == nil {
			fmt.Fprintf(h, "model=nil\n")
			continue
		}
		// JSON, not gob: gob's wire bytes carry process-global type ids, so
		// they depend on which types the test binary happened to encode
		// first. The model holds only integers, so JSON is exact.
		b, err := json.Marshal(r.Model)
		if err != nil {
			t.Fatalf("encoding %s model: %v", r.Config.Name(), err)
		}
		h.Write(b)
	}
	writeFloats(h, p.Input)
	fmt.Fprintf(h, "label=%d\n", p.Label)
	return hex.EncodeToString(h.Sum(nil))
}

// writeParams feeds n's layer kinds and the shapes and exact float bits of
// every Params() tensor to h.
func writeParams(h hash.Hash, n *dnn.Network) {
	for i, l := range n.Layers {
		fmt.Fprintf(h, "%d %s\n", i, l.Kind())
		for _, p := range l.Params() {
			fmt.Fprintf(h, "%v\n", p.Shape())
			writeFloats(h, p.Data())
		}
	}
}

// writeFloats feeds the exact IEEE-754 bits of vs to h.
func writeFloats(h hash.Hash, vs []float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
