package main

import (
	"testing"
	"time"
)

// spansAt builds spans with explicit bounds (in ns) and parents.
func spansAt(defs ...[4]int64) []*span {
	var out []*span
	for i, d := range defs {
		out = append(out, &span{ID: i + 1, Parent: int(d[0]), Name: "s", Start: d[1], End: d[2]})
	}
	return out
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := spansAt(
		[4]int64{0, 0, 100},   // 1: a grid
		[4]int64{1, 10, 40},   // 2: attempt on slot 0
		[4]int64{1, 30, 60},   // 3: attempt on slot 1, overlapping 2
		[4]int64{1, 90, 120},  // 4: runs past the parent's end
		[4]int64{2, 15, 25},   // 5: grandchild of 1, inside 2
		[4]int64{0, 200, 210}, // 6: another root, no children
	)
	self := selfTimes(spans)
	// Children of 1 cover [10,60] ∪ [90,100] = 60 of its 100: a sum of
	// durations (30+30+30) would claim 90 and leave 10.
	if self[1] != 40 {
		t.Errorf("self(1) = %d, want 40", self[1])
	}
	if self[2] != 20 {
		t.Errorf("self(2) = %d, want 20 (30 minus its 10 ns child)", self[2])
	}
	if self[3] != 30 || self[5] != 10 || self[6] != 10 {
		t.Errorf("leaf self times %d %d %d, want 30 10 10", self[3], self[5], self[6])
	}
}

func TestCoveredClipsAndMerges(t *testing.T) {
	for _, c := range []struct {
		ivs  [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{-5, 5}}, 5},
		{[][2]int64{{20, 30}, {0, 10}, {5, 15}}, 25},
		{[][2]int64{{0, 50}, {10, 20}}, 50},
		{[][2]int64{{40, 60}, {60, 70}}, 10},
	} {
		if got := covered(0, 50, c.ivs); got != c.want {
			t.Errorf("covered(0, 50, %v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("pass", "pass-0", nil)
	s.set("k", 1)
	if d := s.end(); d != 0 || s != nil {
		t.Errorf("untraced span: %v, %v", s, d)
	}
	if got := tr.add("sim.slot", "pass-0", nil, time.Now(), time.Now()); got != nil {
		t.Errorf("untraced add returned %v", got)
	}
}

func TestByNameFoldsSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.add("pass", "pass-1", nil, t0, t0.Add(10*time.Millisecond))
	tr.add("sim.RunOpts", "pass-1", root, t0.Add(1*time.Millisecond), t0.Add(8*time.Millisecond))
	got := byName(tr.spans)
	if p := got["pass"]; p.Spans != 1 || p.TotalS != 0.01 || p.SelfS < 0.003-1e-12 || p.SelfS > 0.003+1e-12 {
		t.Errorf("pass: %+v, want 1 span, 0.01 s total, 0.003 s self", p)
	}
}

func TestTraceOpLeavesOnlyTheFirstOpUntraced(t *testing.T) {
	tr := newTracer()
	for i, want := range []bool{false, true, true, true, true} {
		if got := traceOp(tr, i); got != want {
			t.Errorf("traceOp(op %d) = %v, want %v", i, got, want)
		}
		if traceOp(nil, i) {
			t.Errorf("untraced run traced op %d", i)
		}
	}
}
