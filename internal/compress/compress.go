// Package compress implements the network transformations GENESIS sweeps
// (§5.2): magnitude pruning of convolutional and fully-connected layers,
// SVD separation of fully-connected layers, and Tucker/spatial separation
// of convolutional layers. Every transformation maps a trained float
// network to a smaller network that computes (approximately) the same
// function and can be fine-tuned afterwards.
package compress

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/dnn"
	"repro/internal/linalg"
	"repro/internal/tensor"
)

// PruneConv installs a magnitude-pruning mask on the conv layer at index
// li, dropping the smallest fraction of weights. It returns the retained
// count.
func PruneConv(n *dnn.Network, li int, dropFrac float64) (int, error) {
	c, ok := n.Layers[li].(*dnn.Conv)
	if !ok {
		return 0, fmt.Errorf("compress: layer %d is %s, not conv", li, n.Layers[li].Kind())
	}
	thr := magnitudeQuantile(c.W.Data(), dropFrac)
	return c.Prune(thr), nil
}

// SparsifyDense replaces the dense layer at index li with a CSR sparse
// layer, dropping the smallest fraction of weights.
func SparsifyDense(n *dnn.Network, li int, dropFrac float64) (*dnn.SparseDense, error) {
	d, ok := n.Layers[li].(*dnn.Dense)
	if !ok {
		return nil, fmt.Errorf("compress: layer %d is %s, not dense", li, n.Layers[li].Kind())
	}
	thr := magnitudeQuantile(d.W.Data(), dropFrac)
	sd := dnn.NewSparseDense(d, thr)
	n.Layers[li] = sd
	return sd, nil
}

// magnitudeQuantile returns the |value| below which dropFrac of the entries
// fall. A dropFrac of 0 returns 0 (keep everything).
func magnitudeQuantile(vals []float64, dropFrac float64) float64 {
	if dropFrac <= 0 {
		return 0
	}
	if dropFrac >= 1 {
		dropFrac = 0.999
	}
	// Histogram-based quantile: exact enough for thresholding and O(n).
	maxAbs := 0.0
	for _, v := range vals {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	const bins = 4096
	var hist [bins]int
	for _, v := range vals {
		b := int(math.Abs(v) / maxAbs * (bins - 1))
		hist[b]++
	}
	target := int(dropFrac * float64(len(vals)))
	acc := 0
	for b := 0; b < bins; b++ {
		acc += hist[b]
		if acc >= target {
			return float64(b+1) / (bins - 1) * maxAbs
		}
	}
	return maxAbs
}

// SeparateDense replaces the dense layer at index li (out×in) with two
// dense layers (rank×in then out×rank) using truncated SVD — the
// "separation" of §5.2 for fully-connected layers. The original bias moves
// to the second factor. Rank is clamped to min(out,in).
func SeparateDense(n *dnn.Network, li, rank int) error {
	d, ok := n.Layers[li].(*dnn.Dense)
	if !ok {
		return fmt.Errorf("compress: layer %d is %s, not dense", li, n.Layers[li].Kind())
	}
	if rank < 1 {
		rank = 1
	}
	if m := min(d.Out, d.In); rank > m {
		rank = m
	}
	svd := linalg.Decompose(d.W)
	a1, a2 := svd.LowRankFactors(rank) // W ≈ a1(out,rank) * a2(rank,in)
	first := dnn.NewDense(nil2rng(), rank, d.In)
	second := dnn.NewDense(nil2rng(), d.Out, rank)
	copy(first.W.Data(), a2.Data())
	first.B.Zero()
	copy(second.W.Data(), a1.Data())
	copy(second.B.Data(), d.B.Data())
	n.Layers = append(n.Layers[:li], append([]dnn.Layer{first, second}, n.Layers[li+1:]...)...)
	return nil
}

// SeparateConvSpatial replaces the conv layer at index li — F filters of
// (C,KH,KW) — with a vertical conv (rank filters of C×KH×1) followed by a
// horizontal conv (F filters of rank×1×KW), via SVD of the (C·KH)×(F·KW)
// unfolding (Jaderberg-style spatial separation; the paper's "3×1D conv"
// for single-channel filters). Exact when rank equals the unfolding's rank.
func SeparateConvSpatial(n *dnn.Network, li, rank int) error {
	c, ok := n.Layers[li].(*dnn.Conv)
	if !ok {
		return fmt.Errorf("compress: layer %d is %s, not conv", li, n.Layers[li].Kind())
	}
	if rank < 1 {
		rank = 1
	}
	// Unfold W[f,c,kh,kw] into M[(c,kh),(f,kw)]: each (f,c,kh) row of KW
	// taps lands contiguously in row (c,kh) at column f*KW.
	rows, cols := c.C*c.KH, c.F*c.KW
	m := tensor.New(rows, cols)
	w, md := c.W.Data(), m.Data()
	for f := 0; f < c.F; f++ {
		for ck := 0; ck < rows; ck++ {
			src := (f*rows + ck) * c.KW
			copy(md[ck*cols+f*c.KW:ck*cols+(f+1)*c.KW], w[src:src+c.KW])
		}
	}
	if mr := min(rows, cols); rank > mr {
		rank = mr
	}
	svd := linalg.Decompose(m)
	a, b := svd.LowRankFactors(rank) // M ≈ a((c,kh),r) * b(r,(f,kw))

	// vert.W[r,(c,kh),0] = a[(c,kh),r]: a transposed.
	vert := dnn.NewConv(nil2rng(), rank, c.C, c.KH, 1)
	vw, ad := vert.W.Data(), a.Data()
	for r := 0; r < rank; r++ {
		for ck := 0; ck < rows; ck++ {
			vw[r*rows+ck] = ad[ck*rank+r]
		}
	}
	vert.B.Zero()
	// horiz.W[f,r,0,kw] = b[r,(f,kw)]: KW-long runs of b.
	horiz := dnn.NewConv(nil2rng(), c.F, rank, 1, c.KW)
	hw, bd := horiz.W.Data(), b.Data()
	for f := 0; f < c.F; f++ {
		for r := 0; r < rank; r++ {
			dst := (f*rank + r) * c.KW
			copy(hw[dst:dst+c.KW], bd[r*cols+f*c.KW:r*cols+(f+1)*c.KW])
		}
	}
	copy(horiz.B.Data(), c.B.Data())
	n.Layers = append(n.Layers[:li], append([]dnn.Layer{vert, horiz}, n.Layers[li+1:]...)...)
	return nil
}

// SeparateConvTucker2 replaces the conv layer at index li with the Tucker-2
// chain used by GENESIS on multi-channel filters: a 1×1 conv projecting C
// input channels to rankC, the (KH,KW) core conv rankC→rankF, and a 1×1
// conv expanding rankF to F (HOOI on the F and C modes, §5.2).
func SeparateConvTucker2(n *dnn.Network, li, rankF, rankC int) error {
	c, ok := n.Layers[li].(*dnn.Conv)
	if !ok {
		return fmt.Errorf("compress: layer %d is %s, not conv", li, n.Layers[li].Kind())
	}
	if rankF < 1 {
		rankF = 1
	}
	if rankC < 1 {
		rankC = 1
	}
	tk := linalg.HOOI(c.W, []int{rankF, rankC, c.KH, c.KW})
	rankF, rankC = tk.Ranks[0], tk.Ranks[1]
	uF, uC := tk.Factors[0], tk.Factors[1] // (F,rankF), (C,rankC)
	// Spatial factors are orthonormal square matrices absorbed into the
	// core so the chain has exactly three convolutions.
	core := linalg.ModeMul(linalg.ModeMul(tk.Core, tk.Factors[2], 2), tk.Factors[3], 3)

	// proj.W[r,c,0,0] = uC[c,r]: uC transposed.
	proj := dnn.NewConv(nil2rng(), rankC, c.C, 1, 1)
	pw, ucd := proj.W.Data(), uC.Data()
	for r := 0; r < rankC; r++ {
		for ci := 0; ci < c.C; ci++ {
			pw[r*c.C+ci] = ucd[ci*rankC+r]
		}
	}
	proj.B.Zero()
	mid := dnn.NewConv(nil2rng(), rankF, rankC, c.KH, c.KW)
	copy(mid.W.Data(), core.Data())
	mid.B.Zero()
	// expand.W[f,r,0,0] = uF[f,r]: the same row-major layout.
	expand := dnn.NewConv(nil2rng(), c.F, rankF, 1, 1)
	copy(expand.W.Data(), uF.Data())
	copy(expand.B.Data(), c.B.Data())
	n.Layers = append(n.Layers[:li],
		append([]dnn.Layer{proj, mid, expand}, n.Layers[li+1:]...)...)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// nil2rng returns a deterministic rng for layer constructors whose weights
// are immediately overwritten by the factorization.
func nil2rng() *rand.Rand { return rand.New(rand.NewPCG(0xC0, 0)) }
