package main

import (
	"path/filepath"
	"testing"
)

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{"empty", nil, 0, 100, 0},
		{"disjoint", []interval{{10, 20}, {30, 45}}, 0, 100, 25},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 0, 100, 30},
		{"nested", []interval{{10, 50}, {20, 30}}, 0, 100, 40},
		{"touching", []interval{{10, 20}, {20, 30}}, 0, 100, 20},
		{"unsorted", []interval{{60, 70}, {10, 20}, {15, 25}}, 0, 100, 25},
		{"clipped", []interval{{-10, 10}, {90, 120}}, 0, 100, 20},
		{"outside", []interval{{120, 130}}, 0, 100, 0},
	} {
		if got := unionLength(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: unionLength = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 100, End: 200}
	children := []span{
		{Parent: 1, Start: 110, End: 150}, // concurrent fetches overlap:
		{Parent: 1, Start: 120, End: 160}, // together they cover 110–160
		{Parent: 1, Start: 190, End: 230}, // only 190–200 is inside
	}
	if got, want := selfTime(parent, children), int64(100-50-10); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTracerCoverage(t *testing.T) {
	tr := newTracer()
	root := tr.startOp(0, "op")
	sync := tr.begin(root, "rp.sync")
	fetch := tr.beginScoped("repo.fetch")
	tr.end(fetch)
	tr.end(sync)
	tr.stopOp(root)
	if id := tr.beginScoped("repo.fetch"); id != -1 {
		t.Errorf("span begun outside a traced operation got id %d, want -1", id)
	}

	ops := groupOps(tr.snapshot())
	ot := ops[0]
	if ot == nil {
		t.Fatal("operation 0 has no root span")
	}
	s, ok := ot.layer("rp.sync")
	if !ok {
		t.Fatal("rp.sync is not a layer of the operation")
	}
	if kids := ot.children[s.ID]; len(kids) != 1 || kids[0].Name != "repo.fetch" {
		t.Errorf("rp.sync children = %+v, want one repo.fetch", kids)
	}
	if cov := ot.coverage(); cov < 0 || cov > 1 {
		t.Errorf("coverage = %v, want within [0, 1]", cov)
	}

	// A hand-built operation with a known gap.
	spans := []span{
		{ID: 0, Parent: -1, Op: 3, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 3, Name: "ca.action", Start: 0, End: 10},
		{ID: 2, Parent: 0, Op: 3, Name: "rp.sync", Start: 20, End: 100},
	}
	if cov := groupOps(spans)[3].coverage(); cov != 0.9 {
		t.Errorf("coverage = %v, want 0.9", cov)
	}

	path := filepath.Join(t.TempDir(), "spans", "out.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
}
