package main

import "testing"

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		// Two overlapping children cover [10, 60): 50 of the root's 100.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		// A child sticking out of its parent only counts inside it: [90, 100).
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		// Nested grandchildren of a: [12, 20) and [15, 25) cover [12, 25).
		{ID: 4, Parent: 1, Name: "a1", Start: 12, End: 20},
		{ID: 5, Parent: 1, Name: "a2", Start: 15, End: 25},
		// A grandchild of b, fully inside it.
		{ID: 6, Parent: 2, Name: "b1", Start: 35, End: 55},
	}
	want := []int64{
		100 - 60, // root: 50 from a∪b, 10 from c
		30 - 13,
		30 - 20,
		30,
		8,
		10,
		20,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestBlockingCoverageSequentialSteps(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "prep", Start: 0, End: 70},
		{ID: 2, Parent: 1, Name: "train", Start: 5, End: 60},
		{ID: 3, Parent: 0, Name: "run", Start: 72, End: 99},
		{ID: 4, Parent: -1, Name: "other", Start: 0, End: 1000},
	}
	steps, sum, e2e := blockingCoverage(spans, []int{0})
	if e2e != 100 || sum != 70+27 {
		t.Fatalf("sum %d e2e %d, want 97 and 100", sum, e2e)
	}
	if steps["prep"] != 15 || steps["train"] != 55 || steps["run"] != 27 {
		t.Fatalf("steps %v", steps)
	}
}
