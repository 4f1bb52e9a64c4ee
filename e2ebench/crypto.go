package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/cert"
	"repro/internal/cms"
	"repro/internal/manifest"
	"repro/internal/rfc3779"
	"repro/internal/roa"
	"repro/internal/rp"
)

// replaySample bounds how many objects of each kind the crypto replay
// times; per-object costs are medians over the sample, scaled by the
// world's exact object counts.
const replaySample = 200

// cryptoCosts is the replay's result: per-object costs of each decode and
// verify step, the world's object counts, and the estimate they give of a
// cold sync's object-bound CPU time.
type cryptoCosts struct {
	cmsParseVerifyUS, certParseUS, checkSigUS float64
	manifestParseUS, roaParseUS, rfc3779US    float64
	sha256MBps                                float64
	roas, manifests, certs, crls              int
	bytes                                     int
}

// estVerifySeconds estimates the CPU seconds a cold sync spends on
// object-bound work: for every signed object a CMS parse and signature
// check, its content decode and its EE certificate's chain signature; for
// every CA certificate a parse and chain signature; one signature per CRL;
// and SHA-256 over every byte.
func (c cryptoCosts) estVerifySeconds() float64 {
	us := float64(c.roas)*(c.cmsParseVerifyUS+c.roaParseUS+c.checkSigUS) +
		float64(c.manifests)*(c.cmsParseVerifyUS+c.manifestParseUS+c.checkSigUS) +
		float64(c.certs)*(c.certParseUS+c.checkSigUS) +
		float64(c.crls)*c.checkSigUS
	sec := us / 1e6
	if c.sha256MBps > 0 {
		sec += float64(c.bytes) / 1e6 / c.sha256MBps
	}
	return sec
}

// estSignatureSeconds estimates the part of estVerifySeconds that is ECDSA
// signature verification alone: two signatures per signed object (the CMS
// envelope and the EE certificate), one per CA certificate and one per CRL.
func (c cryptoCosts) estSignatureSeconds() float64 {
	sigs := 2*(c.roas+c.manifests) + c.certs + c.crls
	return float64(sigs) * c.checkSigUS / 1e6
}

// timeEach runs f once per item and returns the median duration in µs.
func timeEach[T any](items []T, f func(T) error) (float64, error) {
	// One untimed call warms caches and lazy initialisation.
	if len(items) > 0 {
		if err := f(items[0]); err != nil {
			return 0, err
		}
	}
	us := make([]float64, 0, len(items))
	for _, it := range items {
		start := time.Now()
		if err := f(it); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// sample returns up to n items of xs chosen by rng, in a stable order.
func sample[T any](rng *rand.Rand, xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	idx := rng.Perm(len(xs))[:n]
	sort.Ints(idx)
	out := make([]T, n)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// issued pairs a certificate with the CA certificate that signed it.
type issued struct{ issuer, child *cert.ResourceCert }

// replayCrypto times the world's own objects through the public parse and
// verify functions of the cms, cert, manifest, roa and rfc3779 packages.
func replayCrypto(stores rp.StoreFetcher, anchorDER []byte, seed int64) (cryptoCosts, error) {
	var c cryptoCosts
	var roaDER, mftDER, cerDER [][]byte
	var all [][]byte
	modules := make([]string, 0, len(stores))
	for m := range stores {
		modules = append(modules, m)
	}
	sort.Strings(modules)
	for _, m := range modules {
		files := stores[m].Snapshot()
		names := make([]string, 0, len(files))
		for n := range files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			der := files[n]
			all = append(all, der)
			c.bytes += len(der)
			switch {
			case strings.HasSuffix(n, ".roa"):
				roaDER = append(roaDER, der)
			case strings.HasSuffix(n, ".mft"):
				mftDER = append(mftDER, der)
			case strings.HasSuffix(n, ".cer"):
				cerDER = append(cerDER, der)
			case strings.HasSuffix(n, ".crl"):
				c.crls++
			}
		}
	}
	c.roas, c.manifests, c.certs = len(roaDER), len(mftDER), len(cerDER)

	// Every CA certificate, indexed by key identifier, so each sampled
	// certificate finds its issuer.
	bySKI := make(map[string]*cert.ResourceCert)
	var cas []*cert.ResourceCert
	for _, der := range append([][]byte{anchorDER}, cerDER...) {
		rc, err := cert.Parse(der)
		if err != nil {
			return c, fmt.Errorf("crypto replay: %w", err)
		}
		bySKI[string(rc.Cert.SubjectKeyId)] = rc
		cas = append(cas, rc)
	}
	rng := rand.New(rand.NewSource(seed))
	var err error
	parsed := func(ders [][]byte) ([]*cms.SignedObject, error) {
		out := make([]*cms.SignedObject, 0, len(ders))
		for _, der := range ders {
			obj, err := cms.Parse(der)
			if err != nil {
				return nil, fmt.Errorf("crypto replay: %w", err)
			}
			out = append(out, obj)
		}
		return out, nil
	}
	roaSample, mftSample := sample(rng, roaDER, replaySample/2), sample(rng, mftDER, replaySample/2)
	if c.cmsParseVerifyUS, err = timeEach(append(append([][]byte(nil), roaSample...), mftSample...), func(der []byte) error {
		_, err := cms.Parse(der)
		return err
	}); err != nil {
		return c, fmt.Errorf("crypto replay: cms: %w", err)
	}
	roaObjs, err := parsed(roaSample)
	if err != nil {
		return c, err
	}
	mftObjs, err := parsed(mftSample)
	if err != nil {
		return c, err
	}
	if c.roaParseUS, err = timeEach(roaObjs, func(o *cms.SignedObject) error {
		_, err := roa.UnmarshalContent(o.Content)
		return err
	}); err != nil {
		return c, fmt.Errorf("crypto replay: roa: %w", err)
	}
	if c.manifestParseUS, err = timeEach(mftObjs, func(o *cms.SignedObject) error {
		_, err := manifest.UnmarshalContent(o.Content)
		return err
	}); err != nil {
		return c, fmt.Errorf("crypto replay: manifest: %w", err)
	}
	if c.certParseUS, err = timeEach(sample(rng, cerDER, replaySample), func(der []byte) error {
		_, err := cert.Parse(der)
		return err
	}); err != nil {
		return c, fmt.Errorf("crypto replay: cert: %w", err)
	}

	// Chain signatures: CA certificates and the EE certificates of signed
	// objects, each against its issuer. A nil *cert.VerifyCache verifies
	// every call.
	var pairs []issued
	for _, rc := range cas[1:] {
		if iss, ok := bySKI[string(rc.Cert.AuthorityKeyId)]; ok {
			pairs = append(pairs, issued{iss, rc})
		}
	}
	for _, o := range append(append([]*cms.SignedObject(nil), roaObjs...), mftObjs...) {
		if iss, ok := bySKI[string(o.EE.Cert.AuthorityKeyId)]; ok {
			pairs = append(pairs, issued{iss, o.EE})
		}
	}
	if len(pairs) == 0 {
		return c, fmt.Errorf("crypto replay: no certificate found its issuer")
	}
	var noCache *cert.VerifyCache
	if c.checkSigUS, err = timeEach(sample(rng, pairs, replaySample), func(p issued) error {
		return noCache.CheckChildSignature(p.issuer, p.child)
	}); err != nil {
		return c, fmt.Errorf("crypto replay: signature: %w", err)
	}

	var exts [][]byte
	for _, rc := range sample(rng, cas, replaySample) {
		for _, ext := range rc.Cert.Extensions {
			if ext.Id.Equal(rfc3779.OIDIPAddrBlocks) {
				exts = append(exts, ext.Value)
			}
		}
	}
	if c.rfc3779US, err = timeEach(exts, func(der []byte) error {
		_, err := rfc3779.UnmarshalIPAddrBlocks(der)
		return err
	}); err != nil {
		return c, fmt.Errorf("crypto replay: rfc3779: %w", err)
	}

	start := time.Now()
	for _, der := range all {
		_ = sha256.Sum256(der)
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		c.sha256MBps = float64(c.bytes) / 1e6 / sec
	}
	return c, nil
}
