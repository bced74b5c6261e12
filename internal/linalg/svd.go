// Package linalg implements the dense linear algebra GENESIS needs to
// separate network layers: singular value decomposition (one-sided Jacobi),
// rank-k truncation, tensor matricization, and the Tucker decomposition via
// higher-order orthogonal iteration (HOOI), following De Lathauwer et al.
package linalg

import (
	"math"

	"repro/internal/tensor"
)

// SVD holds a thin singular value decomposition A = U * diag(S) * V^T,
// with U of shape (m,r), S of length r, and V of shape (n,r), where
// r = min(m,n). Singular values are sorted in descending order.
type SVD struct {
	U *tensor.Tensor
	S []float64
	V *tensor.Tensor
}

// jacobiSweeps bounds the number of full sweeps of the one-sided Jacobi
// iteration; convergence is typically reached far earlier.
const jacobiSweeps = 60

// jacobiTol is the relative off-diagonal tolerance for convergence.
const jacobiTol = 1e-12

// Decompose computes the thin SVD of a 2-D tensor using one-sided Jacobi
// rotations. One-sided Jacobi orthogonalizes the columns of a working copy
// of A while accumulating the rotations into V; the column norms become the
// singular values and the normalized columns become U.
//
// The working matrix and V are held as per-column slices of one flat
// backing array each, so the rotation loop runs over contiguous memory and
// allocates nothing.
func Decompose(a *tensor.Tensor) SVD {
	if a.Dims() != 2 {
		panic("linalg: Decompose requires a 2-D tensor")
	}
	m, n := a.Dim(0), a.Dim(1)
	ad := a.Data()
	transposed := m < n
	if transposed {
		// One-sided Jacobi wants tall matrices; decompose A^T and swap U/V.
		m, n = n, m
	}
	// cols[j] is column j of the working matrix (length m). Column j of
	// A^T is row j of A, so in the transposed case the rows copy straight
	// in.
	work := make([]float64, m*n)
	cols := make([][]float64, n)
	for j := range cols {
		cj := work[j*m : (j+1)*m : (j+1)*m]
		if transposed {
			copy(cj, ad[j*m:(j+1)*m])
		} else {
			for i := range cj {
				cj[i] = ad[i*n+j]
			}
		}
		cols[j] = cj
	}
	// vcols[j] is column j of V, which accumulates the right rotations and
	// starts as the n×n identity.
	vcols := make([][]float64, n)
	vwork := make([]float64, n*n)
	for j := range vcols {
		vcols[j] = vwork[j*n : (j+1)*n : (j+1)*n]
		vcols[j][j] = 1
	}

	for sweep := 0; sweep < jacobiSweeps; sweep++ {
		converged := true
		for p := 0; p < n-1; p++ {
			cp, vp := cols[p][:m], vcols[p][:n]
			for q := p + 1; q < n; q++ {
				cq := cols[q][:len(cp)]
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := range cp {
					alpha += cp[i] * cp[i]
					beta += cq[i] * cq[i]
					gamma += cp[i] * cq[i]
				}
				if math.Abs(gamma) > jacobiTol*math.Sqrt(alpha*beta) {
					converged = false
					// Compute the Jacobi rotation that zeroes gamma.
					zeta := (beta - alpha) / (2 * gamma)
					t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
					c := 1 / math.Sqrt(1+t*t)
					s := c * t
					for i := range cp {
						tmp := cp[i]
						cp[i] = c*tmp - s*cq[i]
						cq[i] = s*tmp + c*cq[i]
					}
					vq := vcols[q][:len(vp)]
					for i := range vp {
						tmp := vp[i]
						vp[i] = c*tmp - s*vq[i]
						vq[i] = s*tmp + c*vq[i]
					}
				}
			}
		}
		if converged {
			break
		}
	}

	// Extract singular values: the column norms.
	s := make([]float64, n)
	for j, cj := range cols {
		norm := 0.0
		for _, x := range cj {
			norm += x * x
		}
		s[j] = math.Sqrt(norm)
	}

	// Sort by descending singular value (simple selection sort; n is small).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	// Scatter the sorted columns into row-major U (normalized working
	// columns; a zero column stays zero) and V.
	sortedS := make([]float64, n)
	sortedU := tensor.New(m, n)
	sortedV := tensor.New(n, n)
	ud, vd := sortedU.Data(), sortedV.Data()
	for newJ, oldJ := range order {
		norm := s[oldJ]
		sortedS[newJ] = norm
		if norm > 0 {
			for i, x := range cols[oldJ] {
				ud[i*n+newJ] = x / norm
			}
		}
		for i, x := range vcols[oldJ] {
			vd[i*n+newJ] = x
		}
	}

	if transposed {
		return SVD{U: sortedV, S: sortedS, V: sortedU}
	}
	return SVD{U: sortedU, S: sortedS, V: sortedV}
}

// Reconstruct returns U * diag(S) * V^T.
func (d SVD) Reconstruct() *tensor.Tensor {
	r, stride := len(d.S), d.U.Dim(1)
	us := d.U.Clone()
	ud := us.Data()
	for i := 0; i < us.Dim(0); i++ {
		row := ud[i*stride : i*stride+r]
		for j := range row {
			row[j] *= d.S[j]
		}
	}
	return tensor.MatMul(us, tensor.Transpose(d.V))
}

// Truncate keeps only the top-k singular triplets.
func (d SVD) Truncate(k int) SVD {
	if k >= len(d.S) {
		return d
	}
	return SVD{U: leadingColumns(d.U, k), S: append([]float64(nil), d.S[:k]...), V: leadingColumns(d.V, k)}
}

// leadingColumns returns the first k columns of the 2-D tensor a.
func leadingColumns(a *tensor.Tensor, k int) *tensor.Tensor {
	rows, cols := a.Dim(0), a.Dim(1)
	out := tensor.New(rows, k)
	ad, od := a.Data(), out.Data()
	for i := 0; i < rows; i++ {
		copy(od[i*k:(i+1)*k], ad[i*cols:i*cols+k])
	}
	return out
}

// LowRankFactors returns matrices (A1, A2) with A ≈ A1*A2, where A1 is
// (m,k) and A2 is (k,n). This is the "separation" GENESIS applies to
// fully-connected layers: an m×n layer becomes m×k followed by k×n.
// The singular values are split evenly (sqrt) across the two factors to
// balance their dynamic ranges for later quantization.
func (d SVD) LowRankFactors(k int) (*tensor.Tensor, *tensor.Tensor) {
	m, n := d.U.Dim(0), d.V.Dim(0)
	ur, vr := d.U.Dim(1), d.V.Dim(1)
	a1 := tensor.New(m, k)
	a2 := tensor.New(k, n)
	ud, vd, a1d, a2d := d.U.Data(), d.V.Data(), a1.Data(), a2.Data()
	for j := 0; j < k; j++ {
		root := math.Sqrt(d.S[j])
		for i := 0; i < m; i++ {
			a1d[i*k+j] = ud[i*ur+j] * root
		}
		row := a2d[j*n : (j+1)*n]
		for i := range row {
			row[i] = vd[i*vr+j] * root
		}
	}
	return a1, a2
}

// RankForEnergy returns the smallest rank whose retained singular-value
// energy (sum of squares) is at least frac of the total. frac in (0,1].
func (d SVD) RankForEnergy(frac float64) int {
	total := 0.0
	for _, s := range d.S {
		total += s * s
	}
	if total == 0 {
		return 1
	}
	acc := 0.0
	for i, s := range d.S {
		acc += s * s
		if acc >= frac*total {
			return i + 1
		}
	}
	return len(d.S)
}
