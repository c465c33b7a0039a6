package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	parent := span{ID: 1, Name: spanExec, Start: 10, End: 50}
	for _, tc := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 40},
		{"one child", []span{{Start: 20, End: 30}}, 30},
		{"back to back", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 20},
		{"overlapping children count once", []span{{Start: 15, End: 30}, {Start: 25, End: 40}}, 15},
		{"nested child adds nothing", []span{{Start: 15, End: 40}, {Start: 20, End: 25}}, 15},
		{"child sticking out is clipped", []span{{Start: 0, End: 20}, {Start: 45, End: 90}}, 25},
		{"child outside the span", []span{{Start: 60, End: 70}}, 40},
		{"unordered children", []span{{Start: 40, End: 50}, {Start: 10, End: 20}}, 20},
		{"children covering everything", []span{{Start: 0, End: 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); !near(got, tc.want) {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimesChargesExecWithItsWholeBatch(t *testing.T) {
	// Two requests share batch 1. Each exec span spans both offloads, though
	// each offload is the child of only one of them.
	spans := []span{
		{ID: 1, Name: spanRequest, Req: 1, Start: 0, End: 30},
		{ID: 2, Parent: 1, Name: spanQueue, Req: 1, Start: 0, End: 4},
		{ID: 3, Parent: 1, Name: spanExec, Req: 1, Batch: 1, Start: 4, End: 30},
		{ID: 4, Parent: 3, Name: spanOffload, Req: 1, Batch: 1, Start: 6, End: 16},
		{ID: 5, Name: spanRequest, Req: 2, Start: 2, End: 30},
		{ID: 6, Parent: 5, Name: spanQueue, Req: 2, Start: 2, End: 4},
		{ID: 7, Parent: 5, Name: spanExec, Req: 2, Batch: 1, Start: 4, End: 30},
		{ID: 8, Parent: 7, Name: spanOffload, Req: 2, Batch: 1, Start: 16, End: 28},
	}
	self := selfTimes(spans)
	for name, want := range map[string]float64{
		spanRequest: 0,  // queue and exec cover both requests end to end
		spanQueue:   3,  // medians of 4 and 2
		spanExec:    4,  // 26 long, 22 of it inside the batch's two offloads
		spanOffload: 11, // medians of 10 and 12
	} {
		if got := self[name]; !near(got, want) {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}
