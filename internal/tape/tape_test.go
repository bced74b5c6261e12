// External test package: the cross-checks pull in sonic (for FinalParity)
// and intermittest, both of which sit above tape in the import graph.
package tape_test

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/intermittest"
	"repro/internal/sonic"
	"repro/internal/tape"
)

// TestCompileTablesMatchInterpretedDecodes cross-checks every table entry
// against the div/mod chains a kernel would compute live (as the deleted
// interpreted kernels did): the tables are only legal if they answer the
// exact same questions.
func TestCompileTablesMatchInterpretedDecodes(t *testing.T) {
	qm, _ := intermittest.TinyModel(1)
	p := tape.Compile(qm)
	if len(p.Layers) != len(qm.Layers) {
		t.Fatalf("compiled %d layers, model has %d", len(p.Layers), len(qm.Layers))
	}
	sawConv, sawSparse, sawPool := false, false, false
	for li := range qm.Layers {
		q := &qm.Layers[li]
		tl := &p.Layers[li]
		if want := core.LayerName(qm, li); tl.Name != want {
			t.Errorf("layer %d name = %q, want %q", li, tl.Name, want)
		}
		if want := q.Kind != dnn.QFlatten; tl.Flips != want {
			t.Errorf("layer %d (%v) Flips = %v, want %v", li, q.Kind, tl.Flips, want)
		}
		switch q.Kind {
		case dnn.QConv:
			sawConv = true
			h, w := q.InShape[1], q.InShape[2]
			oh, ow := q.OutShape[1], q.OutShape[2]
			epf := q.C * q.KH * q.KW
			if tl.EPF != epf || tl.Positions != oh*ow {
				t.Fatalf("layer %d EPF/Positions = %d/%d, want %d/%d", li, tl.EPF, tl.Positions, epf, oh*ow)
			}
			for widx := range q.W {
				kx := widx % q.KW
				ky := (widx / q.KW) % q.KH
				ci := (widx / (q.KW * q.KH)) % q.C
				f := widx / epf
				if got, want := int(tl.WSrc[widx]), (ci*h+ky)*w+kx; got != want {
					t.Fatalf("layer %d WSrc[%d] = %d, want %d", li, widx, got, want)
				}
				if got, want := int(tl.WAccBase[widx]), f*tl.Positions; got != want {
					t.Fatalf("layer %d WAccBase[%d] = %d, want %d", li, widx, got, want)
				}
			}
			for i := 0; i < tl.Positions; i++ {
				if got, want := int(tl.PosOff[i]), (i/ow)*w+i%ow; got != want {
					t.Fatalf("layer %d PosOff[%d] = %d, want %d", li, i, got, want)
				}
			}
			for i := range tl.FilterOf {
				if got, want := int(tl.FilterOf[i]), i/tl.Positions; got != want {
					t.Fatalf("layer %d FilterOf[%d] = %d, want %d", li, i, got, want)
				}
			}
			if q.NZ != nil {
				sawSparse = true
				if tl.Elems != len(q.NZ) {
					t.Fatalf("layer %d Elems = %d, want len(NZ)=%d", li, tl.Elems, len(q.NZ))
				}
				for pos := range q.NZ {
					want := pos == 0 || int(q.NZ[pos-1])/epf != int(q.NZ[pos])/epf
					if tl.First[pos] != want {
						t.Fatalf("layer %d First[%d] = %v, want %v", li, pos, tl.First[pos], want)
					}
				}
				if tl.RowAcc != nil || tl.GenSrc != nil {
					t.Fatalf("layer %d: sparse conv compiled TAILS dense tables", li)
				}
			} else {
				if tl.Elems != len(q.W) {
					t.Fatalf("layer %d Elems = %d, want len(W)=%d", li, tl.Elems, len(q.W))
				}
				for pos := 0; pos < tl.Elems; pos++ {
					if tl.First[pos] != (pos%epf == 0) {
						t.Fatalf("layer %d First[%d] = %v, want %v", li, pos, tl.First[pos], pos%epf == 0)
					}
				}
				for r := 0; r < q.F*oh; r++ {
					f, oy := r/oh, r%oh
					if got, want := int(tl.RowAcc[r]), f*oh*ow+oy*ow; got != want {
						t.Fatalf("layer %d RowAcc[%d] = %d, want %d", li, r, got, want)
					}
					if got, want := int(tl.RowSrcY[r]), oy*w; got != want {
						t.Fatalf("layer %d RowSrcY[%d] = %d, want %d", li, r, got, want)
					}
					if got, want := int(tl.RowCoef[r]), f*epf; got != want {
						t.Fatalf("layer %d RowCoef[%d] = %d, want %d", li, r, got, want)
					}
				}
				for g := 0; g < q.C*q.KH; g++ {
					ci, ky := g/q.KH, g%q.KH
					if got, want := int(tl.GenSrc[g]), (ci*h+ky)*w; got != want {
						t.Fatalf("layer %d GenSrc[%d] = %d, want %d", li, g, got, want)
					}
					if got, want := int(tl.GenCoef[g]), g*q.KW; got != want {
						t.Fatalf("layer %d GenCoef[%d] = %d, want %d", li, g, got, want)
					}
					// The two tables recompose to the live-decoded
					// coefficient offset ((f*C+ci)*KH+ky)*KW.
					for r := 0; r < q.F*oh; r++ {
						f := r / oh
						if got, want := int(tl.RowCoef[r])+int(tl.GenCoef[g]), ((f*q.C+ci)*q.KH+ky)*q.KW; got != want {
							t.Fatalf("layer %d coef(r=%d,g=%d) = %d, want %d", li, r, g, got, want)
						}
					}
				}
			}
		case dnn.QPool:
			sawPool = true
			c, h, w := q.InShape[0], q.InShape[1], q.InShape[2]
			oh, ow := h/q.Window, w/q.Window
			if len(tl.PoolBase) != c*oh*ow {
				t.Fatalf("layer %d PoolBase has %d entries, want %d", li, len(tl.PoolBase), c*oh*ow)
			}
			n := 0
			for ci := 0; ci < c; ci++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						if got, want := int(tl.PoolBase[n]), (ci*h+oy*q.Window)*w+ox*q.Window; got != want {
							t.Fatalf("layer %d PoolBase[%d] = %d, want %d", li, n, got, want)
						}
						n++
					}
				}
			}
		}
	}
	if !sawConv || !sawPool {
		t.Fatalf("tiny model exercised conv=%v sparse=%v pool=%v; table coverage is incomplete", sawConv, sawSparse, sawPool)
	}
	if got, want := p.FinalParity, sonic.FinalParity(qm); got != want {
		t.Fatalf("FinalParity = %v, want sonic.FinalParity = %v", got, want)
	}
}

// TestGetMemoizesPerModel: one compile per model pointer, shared across
// concurrent getters — the property that keeps fleet campaigns from
// compiling a network once per device — until Forget drops it.
func TestGetMemoizesPerModel(t *testing.T) {
	qm, _ := intermittest.TinyModel(1)
	const goroutines = 16
	progs := make([]*tape.Program, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			progs[g] = tape.Get(qm)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if progs[g] != progs[0] {
			t.Fatal("concurrent Get returned distinct programs for one model")
		}
	}
	qm2, _ := intermittest.TinyModel(1)
	if tape.Get(qm2) == progs[0] {
		t.Fatal("distinct model pointers share a program")
	}
	// Forget drops the memo, so the next Get compiles afresh.
	tape.Forget(qm)
	if tape.Get(qm) == progs[0] {
		t.Fatal("Get after Forget returned the forgotten program")
	}
}

// TestScratchSizing: borrowed workspaces cover every pass the model runs,
// and the shared zero block really is all zeros at full length.
func TestScratchSizing(t *testing.T) {
	qm, _ := intermittest.TinyModel(1)
	p := tape.Get(qm)
	sc := p.GetScratch()
	defer p.PutScratch(sc)
	for li := range qm.Layers {
		q := &qm.Layers[li]
		switch q.Kind {
		case dnn.QConv:
			tl := &p.Layers[li]
			if need := q.F * tl.Positions; len(sc.Out) < need {
				t.Fatalf("layer %d needs Out[%d], scratch has %d", li, need, len(sc.Out))
			}
			if need := q.OutShape[2]; len(sc.Row) < need {
				t.Fatalf("layer %d needs Row[%d], scratch has %d", li, need, len(sc.Row))
			}
			for i, z := range p.Zeros(q.F * tl.Positions) {
				if z != 0 {
					t.Fatalf("Zeros[%d] = %d", i, z)
				}
			}
		case dnn.QReLU:
			if need := q.InShape.Len(); len(sc.Out) < need {
				t.Fatalf("relu layer %d needs Out[%d], scratch has %d", li, need, len(sc.Out))
			}
		case dnn.QDense, dnn.QSparseDense:
			if len(sc.Out) < q.Out {
				t.Fatalf("dense layer %d needs Out[%d], scratch has %d", li, q.Out, len(sc.Out))
			}
		}
	}
}
