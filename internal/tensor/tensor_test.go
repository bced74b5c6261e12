package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Fatalf("Len = %d, want 24", a.Len())
	}
	a.Set(7.5, 1, 2, 3)
	if a.At(1, 2, 3) != 7.5 {
		t.Errorf("At(1,2,3) = %v", a.At(1, 2, 3))
	}
	if a.At(0, 0, 0) != 0 {
		t.Errorf("zero value expected")
	}
	// Row-major layout: last index is fastest.
	a.Set(1, 0, 0, 1)
	if a.Data()[1] != 1 {
		t.Errorf("row-major layout violated")
	}
}

func TestIndexPanics(t *testing.T) {
	a := New(2, 2)
	for _, tc := range []struct {
		idx  []int
		want string
	}{
		{[]int{2, 0}, "tensor: index [2 0] out of range for shape [2 2]"},
		{[]int{0, -1}, "tensor: index [0 -1] out of range for shape [2 2]"},
		{[]int{0, 0, 0}, "tensor: index [0 0 0] has wrong arity for shape [2 2]"},
		{[]int{1}, "tensor: index [1] has wrong arity for shape [2 2]"},
	} {
		for _, op := range []string{"At", "Set"} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Errorf("%s: expected panic for index %v", op, tc.idx)
						return
					}
					if msg, _ := r.(string); msg != tc.want {
						t.Errorf("%s%v panic = %q, want %q", op, tc.idx, r, tc.want)
					}
				}()
				if op == "At" {
					a.At(tc.idx...)
				} else {
					a.Set(1, tc.idx...)
				}
			}()
		}
	}
}

// TestIndexingAllocFree guards the cold-path numerics: element access must
// not heap-allocate its variadic index.
func TestIndexingAllocFree(t *testing.T) {
	a := New(3, 4, 5)
	i, j, k := 2, 3, 4
	sum := 0.0
	if n := testing.AllocsPerRun(100, func() { sum += a.At(i, j, k) }); n != 0 {
		t.Errorf("At allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Set(sum, i, j, k) }); n != 0 {
		t.Errorf("Set allocates %v times per call, want 0", n)
	}
}

func TestInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimension")
		}
	}()
	New(3, 0)
}

func TestReshapeSharesStorage(t *testing.T) {
	a := New(2, 6)
	b := a.Reshape(3, 4)
	b.Set(9, 2, 3)
	if a.At(1, 5) != 9 {
		t.Errorf("reshape should share storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(2, 2)
	a.Set(1, 0, 0)
	b := a.Clone()
	b.Set(5, 0, 0)
	if a.At(0, 0) != 1 {
		t.Errorf("clone should not alias")
	}
}

func TestMatMulAgainstManual(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !Equal(c, want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", c.Data(), want.Data())
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := MatVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MatVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("shape %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v", at.Data())
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0))
		m, k, n := 1+r.IntN(6), 1+r.IntN(6), 1+r.IntN(6)
		a, b := New(m, k), New(k, n)
		a.RandNormal(rng, 1)
		b.RandNormal(rng, 1)
		left := Transpose(MatMul(a, b))
		right := MatMul(Transpose(b), Transpose(a))
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: MatVec is linear: A(x+y) == Ax + Ay.
func TestMatVecLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		m, n := 1+r.IntN(8), 1+r.IntN(8)
		a := New(m, n)
		a.RandNormal(r, 1)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = r.NormFloat64(), r.NormFloat64()
		}
		sum := make([]float64, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		ax, ay, asum := MatVec(a, x), MatVec(a, y), MatVec(a, sum)
		for i := range asum {
			if math.Abs(asum[i]-(ax[i]+ay[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArgmaxMaxAbsNorm(t *testing.T) {
	a := FromSlice([]float64{-3, 1, 2, -0.5}, 4)
	if a.Argmax() != 2 {
		t.Errorf("Argmax = %d", a.Argmax())
	}
	if a.MaxAbs() != 3 {
		t.Errorf("MaxAbs = %v", a.MaxAbs())
	}
	if math.Abs(a.Norm2()-math.Sqrt(9+1+4+0.25)) > 1e-12 {
		t.Errorf("Norm2 = %v", a.Norm2())
	}
	if a.CountNonzero(0.6) != 3 {
		t.Errorf("CountNonzero = %d", a.CountNonzero(0.6))
	}
}

func TestAddScaledScaleFill(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{10, 20}, 2)
	a.AddScaled(0.5, b)
	if a.At(0) != 6 || a.At(1) != 12 {
		t.Errorf("AddScaled = %v", a.Data())
	}
	a.Scale(2)
	if a.At(0) != 12 {
		t.Errorf("Scale = %v", a.Data())
	}
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Errorf("Zero failed")
	}
}

func TestCSRRoundtrip(t *testing.T) {
	d := FromSlice([]float64{
		0, 1.5, 0, 0,
		-2, 0, 0, 0.001,
		0, 0, 3, 0,
	}, 3, 4)
	c := NewCSR(d, 0.01)
	if c.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (0.001 pruned)", c.NNZ())
	}
	back := c.Dense()
	want := d.Clone()
	want.Set(0, 1, 3) // the pruned entry
	if !Equal(back, want, 0) {
		t.Errorf("roundtrip = %v", back.Data())
	}
	if math.Abs(c.Density()-3.0/12.0) > 1e-12 {
		t.Errorf("Density = %v", c.Density())
	}
}

// Property: CSR MatVec equals dense MatVec for random sparse matrices.
func TestCSRMatVecEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		m, n := 1+r.IntN(10), 1+r.IntN(10)
		d := New(m, n)
		for i := 0; i < d.Len(); i++ {
			if r.Float64() < 0.3 {
				d.Data()[i] = r.NormFloat64()
			}
		}
		c := NewCSR(d, 0)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		dv, cv := MatVec(d, x), c.MatVec(x)
		for i := range dv {
			if math.Abs(dv[i]-cv[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCSRRow(t *testing.T) {
	d := FromSlice([]float64{0, 5, 0, 7}, 2, 2)
	c := NewCSR(d, 0)
	cols, vals := c.Row(1)
	if len(cols) != 1 || cols[0] != 1 || vals[0] != 7 {
		t.Errorf("Row(1) = %v %v", cols, vals)
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x, y := New(64, 64), New(64, 64)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkCSRMatVec(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 1))
	d := New(256, 256)
	for i := 0; i < d.Len(); i++ {
		if rng.Float64() < 0.05 {
			d.Data()[i] = rng.NormFloat64()
		}
	}
	c := NewCSR(d, 0)
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MatVec(x)
	}
}
