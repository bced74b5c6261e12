package linalg

import (
	"repro/internal/tensor"
)

// Unfold returns the mode-n matricization of t: a matrix of shape
// (t.Dim(n), prod of the other dims), with the remaining modes flattened in
// row-major order of the original tensor. Fold inverts it.
func Unfold(t *tensor.Tensor, mode int) *tensor.Tensor {
	shape := t.Shape()
	rows := shape[mode]
	cols := t.Len() / rows
	out := tensor.New(rows, cols)
	idx := make([]int, len(shape))
	for flat := 0; flat < t.Len(); flat++ {
		// Decode flat index into multi-index (row-major).
		rem := flat
		for i := len(shape) - 1; i >= 0; i-- {
			idx[i] = rem % shape[i]
			rem /= shape[i]
		}
		r := idx[mode]
		// Column index: row-major over all modes except `mode`.
		c := 0
		for i := 0; i < len(shape); i++ {
			if i == mode {
				continue
			}
			c = c*shape[i] + idx[i]
		}
		out.Data()[r*cols+c] = t.Data()[flat]
	}
	return out
}

// Fold inverts Unfold: it reassembles a tensor of the given shape from its
// mode-n matricization.
func Fold(m *tensor.Tensor, mode int, shape []int) *tensor.Tensor {
	out := tensor.New(shape...)
	cols := out.Len() / shape[mode]
	idx := make([]int, len(shape))
	for flat := 0; flat < out.Len(); flat++ {
		rem := flat
		for i := len(shape) - 1; i >= 0; i-- {
			idx[i] = rem % shape[i]
			rem /= shape[i]
		}
		r := idx[mode]
		c := 0
		for i := 0; i < len(shape); i++ {
			if i == mode {
				continue
			}
			c = c*shape[i] + idx[i]
		}
		out.Data()[flat] = m.Data()[r*cols+c]
	}
	return out
}

// ModeMul computes the mode-n product Y = X ×ₙ M, where M has shape
// (J, X.Dim(n)); the result replaces dimension n with J.
func ModeMul(x *tensor.Tensor, m *tensor.Tensor, mode int) *tensor.Tensor {
	unf := Unfold(x, mode)        // (In, rest)
	prod := tensor.MatMul(m, unf) // (J, rest)
	shape := append([]int(nil), x.Shape()...)
	shape[mode] = m.Dim(0)
	return Fold(prod, mode, shape)
}

// Tucker is a Tucker decomposition X ≈ Core ×₁ F[0] ×₂ F[1] ... with factor
// matrices F[n] of shape (X.Dim(n), Rank[n]).
type Tucker struct {
	Core    *tensor.Tensor
	Factors []*tensor.Tensor
	Ranks   []int
}

// hooiIters bounds the alternating optimization; HOOI converges quickly for
// the small filter tensors GENESIS separates.
const hooiIters = 8

// HOOI computes a rank-(ranks...) Tucker decomposition of x using
// higher-order orthogonal iteration. Ranks are clamped to the corresponding
// dimension sizes.
func HOOI(x *tensor.Tensor, ranks []int) Tucker {
	nd := x.Dims()
	if len(ranks) != nd {
		panic("linalg: HOOI rank arity mismatch")
	}
	r := make([]int, nd)
	for i := range ranks {
		r[i] = ranks[i]
		if r[i] > x.Dim(i) {
			r[i] = x.Dim(i)
		}
		if r[i] < 1 {
			r[i] = 1
		}
	}

	// Initialize factors via HOSVD: leading left singular vectors of each
	// unfolding. An unfolding may have fewer singular triplets than the
	// requested rank (its other dimensions bound it), so the effective rank
	// is whatever the factor actually provides.
	factors := make([]*tensor.Tensor, nd)
	for n := 0; n < nd; n++ {
		factors[n] = leadingLeftVectors(Unfold(x, n), r[n])
		r[n] = factors[n].Dim(1)
	}

	for iter := 0; iter < hooiIters; iter++ {
		for n := 0; n < nd; n++ {
			// Project x by all factors except n, then refresh factor n.
			// The projected unfolding's rank is bounded by the other
			// modes' ranks, so the effective rank may shrink further.
			y := x
			for m := 0; m < nd; m++ {
				if m == n {
					continue
				}
				y = ModeMul(y, tensor.Transpose(factors[m]), m)
			}
			factors[n] = leadingLeftVectors(Unfold(y, n), r[n])
			r[n] = factors[n].Dim(1)
		}
	}

	core := x
	for n := 0; n < nd; n++ {
		core = ModeMul(core, tensor.Transpose(factors[n]), n)
	}
	return Tucker{Core: core, Factors: factors, Ranks: r}
}

// leadingLeftVectors returns the first k left singular vectors of m as an
// (m.Dim(0), k) matrix.
func leadingLeftVectors(m *tensor.Tensor, k int) *tensor.Tensor {
	d := Decompose(m)
	if k > len(d.S) {
		k = len(d.S)
	}
	return leadingColumns(d.U, k)
}

// Reconstruct expands the Tucker decomposition back to a full tensor.
func (t Tucker) Reconstruct() *tensor.Tensor {
	y := t.Core
	for n := range t.Factors {
		y = ModeMul(y, t.Factors[n], n)
	}
	return y
}

// Params returns the number of parameters stored by the decomposition
// (core plus factors), the quantity GENESIS trades against accuracy.
func (t Tucker) Params() int {
	p := t.Core.Len()
	for _, f := range t.Factors {
		p += f.Len()
	}
	return p
}
