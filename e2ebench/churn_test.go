package main

import (
	"context"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/rov"
	"repro/internal/rp"
)

// Every action/inverse pair must move the VRP set by exactly the predicted
// delta and then return the world to its initial VRP digest.
func TestChurnPairsRestoreWorld(t *testing.T) {
	cfg := modelgen.SyntheticConfig{Seed: 7, RIRs: 2, ISPsPerRIR: 2, ROAsPerISP: 3, CustomersPerISP: 2}
	w, err := modelgen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	relying := rp.New(rp.Config{Fetcher: w.Stores, Clock: w.Clock}, w.Anchor())
	sync := func() *rp.Result {
		t.Helper()
		res, err := relying.Sync(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	initial := sync()
	if len(initial.Diagnostics) > 0 {
		t.Fatalf("initial world has diagnostics: %v", initial.Diagnostics)
	}
	if model := validVRPs(w.TA, w.TA.Resources()); !sameVRPs(model, initial.VRPs) {
		t.Fatalf("model predicts %d VRPs, relying party found %d", len(model), len(initial.VRPs))
	}
	want := vrpDigest(initial.VRPs)
	prev := normalize(initial.VRPs)

	s := newScheduler(w, cfg, 3)
	seen := make(map[string]bool)
	for p := 0; p < 25; p++ {
		fwd, inv, err := s.nextPair()
		if err != nil {
			t.Fatal(err)
		}
		seen[fwd.kind] = true
		for _, a := range []action{fwd, inv} {
			if err := a.do(); err != nil {
				t.Fatalf("%s %s: %v", a.kind, a.step, err)
			}
			res := sync()
			next := normalize(res.VRPs)
			announced, withdrawn := rov.DiffVRPs(prev, next)
			if !sameVRPs(announced, a.announced) || !sameVRPs(withdrawn, a.withdrawn) {
				t.Errorf("pair %d %s %s: delta +%v -%v, predicted +%v -%v",
					p, a.kind, a.step, announced, withdrawn, a.announced, a.withdrawn)
			}
			if !a.shrunk && len(res.Diagnostics) > 0 {
				t.Errorf("pair %d %s %s: unexpected diagnostics %v", p, a.kind, a.step, res.Diagnostics)
			}
			prev = next
		}
		if got := vrpDigest(prev); got != want {
			t.Fatalf("pair %d (%s) left the VRP digest changed", p, fwd.kind)
		}
	}
	for _, k := range actionKinds {
		if !seen[k] {
			t.Errorf("25 pairs never made action kind %s", k)
		}
	}
}
