package dnn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// epochsRun counts completed training epochs process-wide. It exists so the
// warm-cache path can prove it performed zero training (see cmd/bench and
// the CI warm-cache step).
var epochsRun atomic.Int64

// EpochsRun returns the number of training epochs completed by this process.
func EpochsRun() int64 { return epochsRun.Load() }

// SGD is a stochastic-gradient-descent optimizer with classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	Decay    float64 // multiplicative LR decay per epoch

	velocity map[*tensor.Tensor]*tensor.Tensor
}

// NewSGD returns an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, Decay: 1.0,
		velocity: make(map[*tensor.Tensor]*tensor.Tensor)}
}

// Step applies accumulated gradients to the network's parameters and clears
// them.
func (o *SGD) Step(n *Network) { o.step(o.plan(n)) }

// sgdPlan is what one Step touches: every parameter with its gradient and
// velocity, and the conv layers whose pruning masks it re-applies. Train
// builds it once per run; the layers cannot change under it there.
type sgdPlan struct {
	slots []sgdSlot
	convs []*Conv
}

type sgdSlot struct{ p, g, v []float64 }

func (o *SGD) plan(n *Network) sgdPlan {
	var pl sgdPlan
	for _, l := range n.Layers {
		params, grads := l.Params(), l.Grads()
		for i, p := range params {
			v, ok := o.velocity[p]
			if !ok {
				v = tensor.New(p.Shape()...)
				o.velocity[p] = v
			}
			pl.slots = append(pl.slots, sgdSlot{p: p.Data(), g: grads[i].Data(), v: v.Data()})
		}
		if c, ok := l.(*Conv); ok {
			pl.convs = append(pl.convs, c)
		}
	}
	return pl
}

func (o *SGD) step(pl sgdPlan) {
	m, lr := o.Momentum, o.LR
	for _, sl := range pl.slots {
		pd := sl.p
		vd, gd := sl.v[:len(pd)], sl.g[:len(pd)]
		for j := range pd {
			vd[j] = m*vd[j] - lr*gd[j]
			pd[j] += vd[j]
			gd[j] = 0
		}
	}
	// A mask touches only its own layer's weights, so applying every mask
	// after every update is the same as masking each layer as it is done.
	for _, c := range pl.convs {
		c.ApplyMask()
	}
}

// EndEpoch applies per-epoch learning-rate decay.
func (o *SGD) EndEpoch() { o.LR *= o.Decay }

// SoftmaxCrossEntropy returns the loss and writes dLoss/dLogits into grad.
func SoftmaxCrossEntropy(logits []float64, label int, grad []float64) float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		grad[i] = math.Exp(v - maxv)
		sum += grad[i]
	}
	loss := 0.0
	for i := range grad {
		grad[i] /= sum
		if i == label {
			loss = -math.Log(grad[i] + 1e-12)
			grad[i] -= 1
		}
	}
	return loss
}

// TrainConfig controls a training run.
type TrainConfig struct {
	Epochs   int
	LR       float64
	Momentum float64
	Decay    float64 // LR multiplier per epoch (1.0 = constant)
	Seed     uint64
	Verbose  bool
	// MaxSamplesPerEpoch caps the samples visited per epoch (0 = all);
	// GENESIS's fine-tuning passes use small caps to bound sweep cost.
	MaxSamplesPerEpoch int
}

// DefaultTrainConfig returns a reasonable configuration for the synthetic
// datasets in this repository.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 4, LR: 0.004, Momentum: 0.9, Decay: 0.7, Seed: 1}
}

// Train fits the network on ds.Train with per-sample SGD and returns the
// final training loss.
func Train(n *Network, ds *dataset.Dataset, cfg TrainConfig) float64 {
	if cfg.Epochs <= 0 {
		return math.NaN()
	}
	if cfg.Decay == 0 {
		cfg.Decay = 1.0
	}
	opt := NewSGD(cfg.LR, cfg.Momentum)
	opt.Decay = cfg.Decay
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7247))
	order := make([]int, len(ds.Train))
	for i := range order {
		order[i] = i
	}
	classes := n.NumClasses()
	grad := make([]float64, classes)
	dyBuf := tensor.New(1, 1, classes)
	plan := opt.plan(n)
	lastLoss := math.NaN()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		samples := order
		if cfg.MaxSamplesPerEpoch > 0 && cfg.MaxSamplesPerEpoch < len(samples) {
			samples = samples[:cfg.MaxSamplesPerEpoch]
		}
		total := 0.0
		for _, idx := range samples {
			ex := ds.Train[idx]
			logits := n.forward(ex.X)
			total += SoftmaxCrossEntropy(logits, ex.Label, grad)
			copy(dyBuf.Data(), grad)
			dy := dyBuf
			for li := len(n.Layers) - 1; li > 0; li-- {
				dy = n.Layers[li].Backward(dy)
			}
			// Nothing reads the first layer's input gradient.
			if len(n.Layers) > 0 {
				if c, ok := n.Layers[0].(*Conv); ok {
					c.backwardParams(dy)
				} else {
					n.Layers[0].Backward(dy)
				}
			}
			opt.step(plan)
		}
		lastLoss = total / float64(len(samples))
		epochsRun.Add(1)
		opt.EndEpoch()
		if cfg.Verbose {
			fmt.Printf("  epoch %d: loss %.4f\n", epoch, lastLoss)
		}
	}
	return lastLoss
}

// Evaluate returns top-1 accuracy on the given examples, sharding the work
// across an automatically sized worker pool (see EvaluateWorkers).
func Evaluate(n *Network, examples []dataset.Example) float64 {
	return EvaluateWorkers(n, examples, 0)
}

// Confusion returns the confusion matrix m[true][predicted] over examples,
// sharding the work across an automatically sized worker pool (see
// ConfusionWorkers).
func Confusion(n *Network, examples []dataset.Example, classes int) [][]int {
	return ConfusionWorkers(n, examples, classes, 0)
}

// BinaryRates treats `interesting` as the positive class and returns the
// true-positive and true-negative rates of argmax classification — the tp
// and tn parameters of the paper's IMpJ model (Table 1).
func BinaryRates(conf [][]int, interesting int) (tp, tn float64) {
	var posTotal, posHit, negTotal, negHit int
	for truth, row := range conf {
		for pred, count := range row {
			if truth == interesting {
				posTotal += count
				if pred == interesting {
					posHit += count
				}
			} else {
				negTotal += count
				if pred != interesting {
					negHit += count
				}
			}
		}
	}
	if posTotal > 0 {
		tp = float64(posHit) / float64(posTotal)
	}
	if negTotal > 0 {
		tn = float64(negHit) / float64(negTotal)
	}
	return tp, tn
}
