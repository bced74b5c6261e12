package dnn

import "repro/internal/tensor"

// This file implements per-layer scratch tensors: every layer keeps its
// Forward output and Backward input-gradient buffers between calls instead
// of allocating fresh tensors per sample. The training inner loop runs one
// Forward and one Backward per sample (batch size 1), so these buffers
// turned the hot loop from ~2 allocations per layer per sample into zero
// steady-state allocations without changing a single arithmetic operation —
// the SGD numerics, and therefore the trained weights, are bit-identical.
//
// The buffers are unexported, so gob serialization (and Clone, which is
// built on it) never sees them: clones start with nil buffers and are
// therefore safe to use from other goroutines. A single Network/Layer
// remains single-goroutine, as it always was (layers cache activations).

// scratch returns a tensor with the given shape for a Forward/Backward
// result, reusing *buf when its shape already matches. The contents are
// unspecified: callers must fully overwrite every element.
//
// dims is copied before it reaches tensor.New (whose panic path lets its
// argument escape), so the caller's variadic slice stays on the stack and
// a reused buffer costs no allocation.
func scratch(buf **tensor.Tensor, dims ...int) *tensor.Tensor {
	if t := *buf; t != nil && sameShape(t, dims) {
		return t
	}
	t := tensor.New(append([]int(nil), dims...)...)
	*buf = t
	return t
}

// scratchZero is scratch for accumulation targets: the returned tensor is
// zero-filled, matching the tensor.New the call site used to perform.
func scratchZero(buf **tensor.Tensor, dims ...int) *tensor.Tensor {
	if t := *buf; t != nil && sameShape(t, dims) {
		t.Zero()
		return t
	}
	t := tensor.New(append([]int(nil), dims...)...)
	*buf = t
	return t
}

// view returns src reshaped to dims, reusing *buf when it is already that
// view of src's storage.
func view(buf **tensor.Tensor, src *tensor.Tensor, dims ...int) *tensor.Tensor {
	if t := *buf; t != nil && &t.Data()[0] == &src.Data()[0] && t.Len() == src.Len() && sameShape(t, dims) {
		return t
	}
	t := src.Reshape(append([]int(nil), dims...)...)
	*buf = t
	return t
}

func sameShape(t *tensor.Tensor, dims []int) bool {
	s := t.Shape()
	if len(s) != len(dims) {
		return false
	}
	for i := range s {
		if s[i] != dims[i] {
			return false
		}
	}
	return true
}
