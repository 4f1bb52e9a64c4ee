package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"

	"repro/internal/ca"
	"repro/internal/ipres"
	"repro/internal/modelgen"
	"repro/internal/roa"
	"repro/internal/rov"
)

// The five authority action kinds of the churn workload. Each is made as a
// pair: the action, then its inverse, so the world returns to its initial
// VRP set after every second operation.
const (
	kindROAIssueDelete   = "roa_issue_delete"
	kindROARevokeReissue = "roa_revoke_reissue"
	kindCustShrink       = "cust_shrink"
	kindISPShrink        = "isp_shrink"
	kindKeyRoll          = "key_roll"
)

var actionKinds = []string{kindROAIssueDelete, kindROARevokeReissue, kindCustShrink, kindISPShrink, kindKeyRoll}

// action is one authority operation together with the VRP delta it must
// cause, predicted from the authorities' own records before it runs.
type action struct {
	kind, step string
	do         func() error
	announced  []rov.VRP
	withdrawn  []rov.VRP
	// shrunk marks the world state after this action as one in which a
	// resource certificate has been shrunk, so the relying party's overclaim
	// diagnostics are expected rather than failures.
	shrunk bool
}

// scheduler makes action pairs over a synthetic world built by
// modelgen.Synthetic. It cycles through the action kinds in a fixed order,
// so the runs of every seed weigh the kinds alike (their counts differ by
// at most one pair), and draws each pair's targets from a seeded generator.
type scheduler struct {
	w   *modelgen.World
	cfg modelgen.SyntheticConfig
	rng *rand.Rand
	n   int
}

func newScheduler(w *modelgen.World, cfg modelgen.SyntheticConfig, seed int64) *scheduler {
	return &scheduler{w: w, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// nextPair returns the next action and its inverse. Predictions are made
// against the current world, which must be in its initial state: the
// previous pair has run.
func (s *scheduler) nextPair() (action, action, error) {
	kind := actionKinds[s.n%len(actionKinds)]
	s.n++
	r := s.rng.Intn(s.cfg.RIRs)
	i := s.rng.Intn(s.cfg.ISPsPerRIR)
	rirName := fmt.Sprintf("rir-%d", r)
	ispName := fmt.Sprintf("%s-isp-%d", rirName, i)
	isp, err := s.w.Authority(ispName)
	if err != nil {
		return action{}, action{}, err
	}
	switch kind {
	case kindROAIssueDelete:
		// A /24 in the ISP's /16 above the ROA (third octet < 160) and
		// customer (160–249) blocks Synthetic carves, with a private ASN
		// no generated ROA uses, so the VRP is new.
		name := fmt.Sprintf("bench-%d", s.n)
		asn := ipres.ASN(4_200_000_000 + uint32(s.n))
		p := roa.MustParsePrefix(fmt.Sprintf("%d.%d.%d.0/24", 8+r, i, 250+s.rng.Intn(6)))
		vrps := rov.FromROA(roa.MustNew(asn, p))
		fwd := action{kind: kind, step: "issue", announced: vrps, do: func() error {
			_, err := isp.IssueROA(name, asn, p)
			return err
		}}
		inv := action{kind: kind, step: "delete", withdrawn: vrps, do: func() error { return isp.DeleteROA(name) }}
		return fwd, inv, nil

	case kindROARevokeReissue:
		names := isp.ROAs()
		if len(names) == 0 {
			return action{}, action{}, fmt.Errorf("churn: %s has no ROAs", ispName)
		}
		name := names[s.rng.Intn(len(names))]
		r, ok := isp.ROA(name)
		if !ok {
			return action{}, action{}, fmt.Errorf("churn: %s lost ROA %s", ispName, name)
		}
		vrps := rov.FromROA(r)
		fwd := action{kind: kind, step: "revoke", withdrawn: vrps, do: func() error { return isp.RevokeROA(name) }}
		inv := action{kind: kind, step: "reissue", announced: vrps, do: func() error {
			_, err := isp.IssueROA(name, r.ASID, r.Prefixes...)
			return err
		}}
		return fwd, inv, nil

	case kindCustShrink:
		custs := isp.Children()
		if len(custs) == 0 {
			return action{}, action{}, fmt.Errorf("churn: %s has no customers", ispName)
		}
		return shrinkPair(kind, isp, custs[s.rng.Intn(len(custs))], 1)

	case kindISPShrink:
		rir, err := s.w.Authority(rirName)
		if err != nil {
			return action{}, action{}, err
		}
		// The ISP keeps the first /20 of its /16: one of its own ROAs
		// survives, the other ROAs and every customer's do not.
		return shrinkPair(kind, rir, ispName, 4)

	default: // kindKeyRoll: make-before-break, no VRP may move
		fwd := action{kind: kind, step: "roll", do: isp.RollKey}
		inv := action{kind: kind, step: "roll-back", do: isp.RollKey}
		return fwd, inv, nil
	}
}

// shrinkPair has parent reissue child's certificate over the first
// 1/2^extraBits of its (single-prefix) resources, then restore it.
func shrinkPair(kind string, parent *ca.Authority, child string, extraBits int) (action, action, error) {
	old, ok := parent.ChildResources(child)
	if !ok {
		return action{}, action{}, fmt.Errorf("churn: %s has no child %s", parent.Name, child)
	}
	prefixes := old.Prefixes()
	if len(prefixes) != 1 {
		return action{}, action{}, fmt.Errorf("churn: %s holds %d prefixes, want 1", child, len(prefixes))
	}
	p := prefixes[0]
	small, err := ipres.PrefixFrom(p.Addr(), p.Bits()+extraBits)
	if err != nil {
		return action{}, action{}, err
	}
	smaller := ipres.SetOfPrefixes(small)
	handle, ok := parent.Child(child)
	if !ok {
		return action{}, action{}, fmt.Errorf("churn: %s has no handle for %s", parent.Name, child)
	}
	_, lost := rov.DiffVRPs(validVRPs(handle, old), validVRPs(handle, smaller))
	fwd := action{kind: kind, step: "shrink", withdrawn: lost, shrunk: true,
		do: func() error { return parent.ShrinkChild(child, smaller) }}
	inv := action{kind: kind, step: "restore", announced: lost,
		do: func() error { return parent.ShrinkChild(child, old) }}
	return fwd, inv, nil
}

// validVRPs predicts, from the authorities' own records, the VRPs that a's
// subtree yields when a is certified for allowed: a ROA or child
// certificate whose resources allowed does not cover is invalid (RFC 6487
// containment), along with everything below it. The result is sorted.
func validVRPs(a *ca.Authority, allowed ipres.Set) []rov.VRP {
	var out []rov.VRP
	var walk func(a *ca.Authority, allowed ipres.Set)
	walk = func(a *ca.Authority, allowed ipres.Set) {
		for _, name := range a.ROAs() {
			if r, ok := a.ROA(name); ok && allowed.Covers(r.ResourceSet()) {
				out = append(out, rov.FromROA(r)...)
			}
		}
		for _, name := range a.Children() {
			res, ok := a.ChildResources(name)
			child, linked := a.Child(name)
			if ok && linked && allowed.Covers(res) {
				walk(child, res)
			}
		}
	}
	walk(a, allowed)
	rov.SortVRPs(out)
	return out
}

// normalize returns a sorted, duplicate-free copy of vrps: the form the
// RTR cache keeps, and the one rov.DiffVRPs requires.
func normalize(vrps []rov.VRP) []rov.VRP {
	out := append([]rov.VRP(nil), vrps...)
	rov.SortVRPs(out)
	uniq := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// vrpDigest is the SHA-256 of a VRP set's canonical text form.
func vrpDigest(vrps []rov.VRP) [32]byte {
	h := sha256.New()
	for _, v := range normalize(vrps) {
		fmt.Fprintln(h, v)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// sameVRPs reports whether two VRP lists hold the same set.
func sameVRPs(a, b []rov.VRP) bool {
	x, y := normalize(a), normalize(b)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
