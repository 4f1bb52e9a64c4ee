package rp

import (
	"context"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ipres"
	"repro/internal/rov"
)

// syncReuse runs one Sync on an existing relying party and fails the test
// on error.
func syncReuse(t *testing.T, relying *RelyingParty) *Result {
	t.Helper()
	res, err := relying.Sync(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestModuleReuseWarmResync: a second sync of an unchanged world reuses
// every module — zero re-validation — and produces identical output.
func TestModuleReuseWarmResync(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)
	if cold.ModulesRevalidated != cold.PubPointsVisited {
		t.Errorf("cold: revalidated %d of %d points", cold.ModulesRevalidated, cold.PubPointsVisited)
	}
	if cold.ModulesReused != 0 {
		t.Errorf("cold: %d modules reused, want 0", cold.ModulesReused)
	}
	warm := syncReuse(t, relying)
	if warm.ModulesRevalidated != 0 {
		t.Errorf("warm: revalidated %d modules, want 0", warm.ModulesRevalidated)
	}
	if warm.ModulesReused != cold.PubPointsVisited {
		t.Errorf("warm: reused %d modules, want %d", warm.ModulesReused, cold.PubPointsVisited)
	}
	if got, want := fingerprint(warm), fingerprint(cold); got != want {
		t.Errorf("warm resync diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestModuleReuseOneModuleChanged: a change to one publication point
// re-validates exactly that point; every other module is reused, and the
// output matches a from-scratch validation of the new world.
func TestModuleReuseOneModuleChanged(t *testing.T) {
	arin, _, continental, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)

	// The authority deletes a ROA (and republishes its manifest/CRL):
	// only the continental module's bytes change.
	if err := continental.DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	warm := syncReuse(t, relying)
	if warm.ModulesRevalidated != 1 {
		t.Errorf("revalidated %d modules, want exactly 1", warm.ModulesRevalidated)
	}
	if want := cold.PubPointsVisited - 1; warm.ModulesReused != want {
		t.Errorf("reused %d modules, want %d", warm.ModulesReused, want)
	}
	fresh := syncWithWorkers(t, arin, stores, 4)
	if got, want := fingerprint(warm), fingerprint(fresh); got != want {
		t.Errorf("incremental result diverged from fresh validation:\n--- warm ---\n%s--- fresh ---\n%s", got, want)
	}
	if len(warm.VRPs) >= len(cold.VRPs) {
		t.Errorf("deleting a ROA should shrink the VRP set: %d -> %d", len(cold.VRPs), len(warm.VRPs))
	}
}

// TestModuleReuseOutputEquivalence: the VRP set and diagnostics are
// byte-identical with and without module reuse, at any worker count, on
// both cold and warm syncs.
func TestModuleReuseOutputEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		arin, _, continental, stores := buildFigure2(t)
		mk := func(disable bool) *RelyingParty {
			return New(Config{Fetcher: stores, Clock: clock, Workers: workers, DisableModuleReuse: disable},
				TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
		}
		with, without := mk(false), mk(true)
		if got, want := fingerprint(syncReuse(t, with)), fingerprint(syncReuse(t, without)); got != want {
			t.Errorf("workers=%d cold sync diverged:\n--- reuse ---\n%s--- no reuse ---\n%s", workers, got, want)
		}
		// Mutate, then compare the warm syncs (one reuses 3 modules, the
		// other re-validates all 4).
		if err := continental.DeleteROA("cont-26"); err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(syncReuse(t, with)), fingerprint(syncReuse(t, without)); got != want {
			t.Errorf("workers=%d warm sync diverged:\n--- reuse ---\n%s--- no reuse ---\n%s", workers, got, want)
		}
	}
}

// TestModuleReuseEpochExpiry: reuse must stop at the cached epoch's edge.
// Advancing the clock past the manifest/CRL freshness window (24h in the
// test CA) forces a full re-validation even though no byte changed — the
// re-validation then reports the stale manifests a cold sync would.
func TestModuleReuseEpochExpiry(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	now := testEpoch
	relying := New(Config{Fetcher: stores, Clock: func() time.Time { return now }, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)

	// Inside the epoch: reuse.
	now = testEpoch.Add(23 * time.Hour)
	warm := syncReuse(t, relying)
	if warm.ModulesReused != cold.PubPointsVisited || warm.ModulesRevalidated != 0 {
		t.Errorf("inside epoch: reused=%d revalidated=%d, want %d/0",
			warm.ModulesReused, warm.ModulesRevalidated, cold.PubPointsVisited)
	}

	// Past the manifests' nextUpdate: the cached verdicts may no longer
	// hold, so every module re-validates (and reports staleness).
	now = testEpoch.Add(25 * time.Hour)
	expired := syncReuse(t, relying)
	if expired.ModulesReused != 0 {
		t.Errorf("past epoch: %d modules reused, want 0", expired.ModulesReused)
	}
	if expired.ModulesRevalidated != cold.PubPointsVisited {
		t.Errorf("past epoch: revalidated %d, want %d", expired.ModulesRevalidated, cold.PubPointsVisited)
	}
	stale := 0
	for _, d := range expired.Diagnostics {
		if d.Kind == DiagStaleManifest {
			stale++
		}
	}
	if stale == 0 {
		t.Error("past epoch: expected stale-manifest diagnostics from the re-validation")
	}
}

// TestModuleReuseAuthorityChange: the paper's certificate whacking. A
// grandparent shrinking a child CA's resources changes nothing in the
// child's own publication point, but its validation outcome changes — the
// memo must re-validate, not reuse.
func TestModuleReuseAuthorityChange(t *testing.T) {
	arin, sprint, _, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)

	// Sprint whacks Continental down to a /24: continental's own store is
	// untouched, but its ROAs now exceed the shrunken certificate.
	if err := sprint.ShrinkChild("continental", ipres.MustParseSet("63.174.16.0/24")); err != nil {
		t.Fatal(err)
	}
	warm := syncReuse(t, relying)
	if warm.ModulesReused >= cold.PubPointsVisited {
		t.Errorf("reused %d modules after an authority change", warm.ModulesReused)
	}
	fresh := syncWithWorkers(t, arin, stores, 4)
	if got, want := fingerprint(warm), fingerprint(fresh); got != want {
		t.Errorf("post-whack result diverged from fresh validation:\n--- warm ---\n%s--- fresh ---\n%s", got, want)
	}
	if len(warm.VRPs) >= len(cold.VRPs) {
		t.Errorf("whacking should shrink the VRP set: %d -> %d", len(cold.VRPs), len(warm.VRPs))
	}
}

// TestModuleReuseDisabled: the knob really disables the memo.
func TestModuleReuseDisabled(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4, DisableModuleReuse: true},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)
	warm := syncReuse(t, relying)
	if warm.ModulesReused != 0 {
		t.Errorf("reused %d modules with reuse disabled", warm.ModulesReused)
	}
	if warm.ModulesRevalidated != cold.PubPointsVisited {
		t.Errorf("revalidated %d, want %d", warm.ModulesRevalidated, cold.PubPointsVisited)
	}
	if got, want := fingerprint(warm), fingerprint(cold); got != want {
		t.Errorf("warm resync diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestModuleReuseTaintedNotCached: a module that validated with any
// diagnostic must never be reused, even when its bytes are unchanged — a
// degraded verdict is recomputed every sync until the authority fixes it.
func TestModuleReuseTaintedNotCached(t *testing.T) {
	arin, _, _, stores := buildFigure2(t)
	// Corrupt a ROA in place (behind the manifest's back).
	raw, _ := stores["continental"].Get("cont-25.roa")
	raw[len(raw)-1] ^= 0xFF
	stores["continental"].Put("cont-25.roa", raw)

	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	cold := syncReuse(t, relying)
	if !cold.Incomplete() {
		t.Fatal("corrupted world should be incomplete")
	}
	warm := syncReuse(t, relying)
	// The three clean modules are reused; the tainted one re-validates.
	if warm.ModulesRevalidated != 1 {
		t.Errorf("revalidated %d modules, want 1 (the tainted one)", warm.ModulesRevalidated)
	}
	if got, want := fingerprint(warm), fingerprint(cold); got != want {
		t.Errorf("warm resync of tainted world diverged:\n--- warm ---\n%s--- cold ---\n%s", got, want)
	}
}

// TestUnchangedResyncReusesVRPArray: a re-sync of an unchanged world hands
// back the previous Result's VRP slice itself, so callers that keep every
// Result do not accumulate one VRP array per poll; a changed world gets a
// new, exactly sized array, and undoing the change hands back the array
// from before it.
func TestUnchangedResyncReusesVRPArray(t *testing.T) {
	arin, _, continental, stores := buildFigure2(t)
	relying := New(Config{Fetcher: stores, Clock: clock, Workers: 4},
		TrustAnchor{CertDER: arin.Cert.Raw, URI: arin.URI})
	same := func(a, b []rov.VRP) bool {
		return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b)
	}
	cold := syncReuse(t, relying)
	if len(cold.VRPs) == 0 || len(cold.VRPs) != cap(cold.VRPs) {
		t.Fatalf("cold VRPs: len %d cap %d, want len == cap > 0", len(cold.VRPs), cap(cold.VRPs))
	}
	if warm := syncReuse(t, relying); !same(warm.VRPs, cold.VRPs) {
		t.Error("unchanged re-sync should return the previous sync's VRP array")
	}

	if err := continental.DeleteROA("cont-22"); err != nil {
		t.Fatal(err)
	}
	changed := syncReuse(t, relying)
	if unsafe.SliceData(changed.VRPs) == unsafe.SliceData(cold.VRPs) {
		t.Fatal("a changed world must get a new VRP array")
	}
	if len(changed.VRPs) != cap(changed.VRPs) || len(changed.VRPs) >= len(cold.VRPs) {
		t.Errorf("changed VRPs: len %d cap %d, cold len %d", len(changed.VRPs), cap(changed.VRPs), len(cold.VRPs))
	}
	if !slices.Equal(changed.VRPs, syncWithWorkers(t, arin, stores, 4).VRPs) {
		t.Error("changed world's VRPs diverge from a fresh validation")
	}

	// Undo the deletion: the VRP set is the cold one again.
	mustROA(t, continental, "cont-22", 7341, "63.174.16.0/22")
	restored := syncReuse(t, relying)
	if !same(restored.VRPs, cold.VRPs) {
		t.Error("a world restored to the set before the last change should return that set's array")
	}
	if again := syncReuse(t, relying); !same(again.VRPs, cold.VRPs) {
		t.Error("unchanged re-sync after a restore should keep returning the same array")
	}
}
