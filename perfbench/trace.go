package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call: the program itself carries no tracing.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // wall clock, Unix nanoseconds
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"` // heap objects allocated process-wide during the span
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name,
		Start: time.Now().UnixNano(), Allocs: ms.Mallocs})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Now().UnixNano()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &t.spans[id]
	s.End = now
	s.Allocs = ms.Mallocs - s.Allocs
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// adopt appends spans recorded by another process (a cold replay child),
// renumbering them, and returns the ids of their roots.
func (t *tracer) adopt(spans []span) []int {
	base := len(t.spans)
	var roots []int
	for _, s := range spans {
		s.ID += base
		if s.Parent < 0 {
			roots = append(roots, s.ID)
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	return roots
}

// write dumps the spans as JSON to dir/name.
func (t *tracer) write(dir, name string) error {
	buf, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf, 0o644)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that the union of its children's intervals covers. Children may
// nest, overlap each other (parallel calls) or stick out of the parent;
// only the covered part of the parent's own interval is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// blockingCoverage checks one workload's replayed jobs: the self times of
// every step below the job roots, summed, against the roots' summed
// durations (the traced end-to-end time). The steps run one after another
// on the job's critical path, so the ratio is 1 when the trace accounts for
// all of the job's time.
func blockingCoverage(spans []span, roots []int) (steps map[string]int64, stepsSum, e2e int64) {
	self := selfTimes(spans)
	inJob := make(map[int]bool)
	for _, r := range roots {
		inJob[r] = true
		e2e += spans[r].dur()
	}
	steps = make(map[string]int64)
	// Spans are appended in begin order, so a parent precedes its children.
	for i, s := range spans {
		if s.Parent >= 0 && inJob[s.Parent] {
			inJob[i] = true
			steps[s.Name] += self[i]
			stepsSum += self[i]
		}
	}
	return steps, stepsSum, e2e
}
