package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/modelgen"
	"repro/internal/rov"
	"repro/internal/rp"
	"repro/internal/rtr"
)

// opCtx carries one operation through its timed region and collects what
// it measured. tr is nil for an untraced operation.
type opCtx struct {
	i    int
	tr   *tracer
	root int
	m    meter
	rec  opRecord
}

// opRecord is what one operation measured.
type opRecord struct {
	traced   bool
	kind     string // authority action kind (churn_to_router)
	use      usage
	failures []string
	res      *rp.Result
	// delta is the number of VRPs announced plus withdrawn, counted
	// outside the timed region.
	delta int
	// serialBumps is how far the RTR serial moved.
	serialBumps int
	// toRouter is the time from the SetVRPs call until every router
	// applied the new serial; 0 when the serial did not move.
	toRouter float64
	repo     repoCounts
	// peakRSS is the process's peak resident set during the operation, MiB.
	peakRSS float64
}

func (c *opCtx) start() {
	c.m = startMeter()
	if c.tr != nil {
		c.root = c.tr.startOp(c.i, "op")
	}
}

func (c *opCtx) stop() {
	if c.tr != nil {
		c.tr.stopOp(c.root)
	}
	c.rec.use = c.m.done()
}

// begin starts a layer span directly under the operation.
func (c *opCtx) begin(name string) int {
	if c.tr == nil {
		return -1
	}
	return c.tr.begin(c.root, name)
}

func (c *opCtx) end(id int) {
	if c.tr != nil {
		c.tr.end(id)
	}
}

func (c *opCtx) fail(format string, args ...any) {
	c.rec.failures = append(c.rec.failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark scenario: set up by its constructor, then run
// one operation at a time.
type workload interface {
	op(c *opCtx)
	// world returns the served world, for the crypto replay.
	world() *served
	// coldSync returns the wall and CPU seconds of the untimed cold sync
	// over TCP that set-up made.
	coldSync() (wall, cpu float64)
	// rtrCounters returns the RTR server's eviction and cache-reset counts.
	rtrCounters() (evictions, resets uint64)
	// repoCounts reads the traced run's repository counters.
	repoCounts() repoCounts
	close()
}

// base holds what every workload has: the served world, the tracer of a
// traced run and the repository counters.
type base struct {
	srv  *served
	tr   *tracer
	rc   repoCounter
	cold usage
}

func (b *base) world() *served                { return b.srv }
func (b *base) coldSync() (float64, float64)  { return b.cold.wall, b.cold.cpu }
func (b *base) rtrCounters() (uint64, uint64) { return 0, 0 }
func (b *base) repoCounts() repoCounts        { return b.rc.read() }

// syncCold runs set-up's cold sync with relying, recording its cost.
func (b *base) syncCold(relying *rp.RelyingParty) (*rp.Result, error) {
	m := startMeter()
	res, err := relying.Sync(context.Background())
	b.cold = m.done()
	if err != nil {
		return nil, fmt.Errorf("cold sync: %w", err)
	}
	if len(res.Diagnostics) > 0 {
		return nil, fmt.Errorf("cold sync: %d diagnostics, first %v", len(res.Diagnostics), res.Diagnostics[0])
	}
	return res, nil
}

// ---- steady_poll ----

// steadyPoll: one relying party, cold-synced in set-up — the daemon's
// start — then each operation is one poll of the unchanged world followed
// by SetVRPs, which must be a no-op.
type steadyPoll struct {
	base
	relying *rp.RelyingParty
	cache   *rtr.Cache
	ref     reference
}

func newSteadyPoll(sw *modelgen.ScaledWorld, ref reference, tr *tracer) (workload, error) {
	srv, err := serveScaled(sw)
	if err != nil {
		return nil, err
	}
	w := &steadyPoll{base: base{srv: srv, tr: tr}, ref: ref}
	w.relying = newRelyingParty(srv, tr, &w.rc)
	res, err := w.syncCold(w.relying)
	if err != nil {
		w.close()
		return nil, err
	}
	if len(res.VRPs) != ref.count || vrpDigest(res.VRPs) != ref.digest {
		w.close()
		return nil, fmt.Errorf("cold sync over TCP found %d VRPs, the in-process reference %d, or their digests differ",
			len(res.VRPs), ref.count)
	}
	w.cache = rtr.NewCache(1)
	w.cache.SetVRPs(res.VRPs)
	return w, nil
}

func (w *steadyPoll) op(c *opCtx) {
	serial := w.cache.Serial()
	c.start()
	id := c.begin("rp.sync")
	res, err := w.relying.Sync(context.Background())
	c.end(id)
	if err == nil {
		id = c.begin("rtr.setvrps")
		w.cache.SetVRPs(res.VRPs)
		c.end(id)
	}
	c.stop()
	c.rec.res = res
	c.rec.serialBumps = int(w.cache.Serial() - serial)
	switch {
	case err != nil:
		c.fail("poll: %v", err)
	case res.ModulesRevalidated != 0:
		c.fail("poll of an unchanged world revalidated %d modules", res.ModulesRevalidated)
	case res.VerifyCacheMisses != 0:
		c.fail("poll of an unchanged world missed the verify cache %d times", res.VerifyCacheMisses)
	case c.rec.serialBumps != 0:
		c.fail("poll of an unchanged world moved the RTR serial by %d", c.rec.serialBumps)
	case len(res.Diagnostics) > 0:
		c.fail("poll left %d diagnostics, first %v", len(res.Diagnostics), res.Diagnostics[0])
	case len(res.VRPs) != w.ref.count || vrpDigest(res.VRPs) != w.ref.digest:
		c.fail("poll of an unchanged world changed the VRP set")
	}
}

func (w *steadyPoll) close() { _ = w.srv.stop() }

// ---- churn_to_router ----

// churnRouters is the number of RTR router sessions: at most nproc, so
// routers never outnumber the cores.
const churnRouters = 2

// churn: the live production-sized world with real authority handles and
// two routers. Each operation is one authority action, a sync, SetVRPs,
// and the wait until both routers applied the new serial.
type churn struct {
	base
	sched   *scheduler
	pending []action
	relying *rp.RelyingParty
	cache   *rtr.Cache
	rtrSrv  *rtr.Server
	routers *fleet
	last    []rov.VRP // normalized output of the previous sync
}

func newChurn(seed int64, tr *tracer) (workload, error) {
	cfg := modelgen.ProductionSized(seed)
	world, err := modelgen.Synthetic(cfg)
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	addr, stop, err := serve(world.Stores)
	if err != nil {
		return nil, err
	}
	srv := &served{stores: world.Stores, anchor: world.Anchor(), clock: world.Clock, addr: addr, stop: stop}
	w := &churn{base: base{srv: srv, tr: tr}, sched: newScheduler(world, cfg, seed)}
	w.relying = newRelyingParty(srv, tr, &w.rc)
	res, err := w.syncCold(w.relying)
	if err != nil {
		w.close()
		return nil, err
	}
	w.last = normalize(res.VRPs)
	w.cache = rtr.NewCache(1)
	w.cache.SetVRPs(res.VRPs)
	w.rtrSrv, addr, err = newRTRServer(w.cache)
	if err != nil {
		w.close()
		return nil, err
	}
	w.routers = startFleet(addr, churnRouters)
	if !w.routers.wait(w.cache.Serial(), routerWait) {
		w.close()
		return nil, fmt.Errorf("routers did not sync within %v", routerWait)
	}
	return w, nil
}

func (w *churn) op(c *opCtx) {
	if len(w.pending) == 0 {
		fwd, inv, err := w.sched.nextPair()
		if err != nil {
			c.fail("scheduling: %v", err)
			return
		}
		w.pending = []action{fwd, inv}
	}
	a := w.pending[0]
	w.pending = w.pending[1:]
	c.rec.kind = a.kind
	serial := w.cache.Serial()
	evictions, reconnects := w.rtrSrv.Evictions(), w.routers.reconnects.Load()

	c.start()
	id := c.begin("ca.action")
	actErr := a.do()
	c.end(id)
	id = c.begin("rp.sync")
	res, err := w.relying.Sync(context.Background())
	c.end(id)
	applied := true
	if err == nil {
		id = c.begin("rtr.setvrps")
		t0 := time.Now()
		w.cache.SetVRPs(res.VRPs)
		c.end(id)
		if next := w.cache.Serial(); next != serial {
			id = c.begin("rtr.router_apply")
			applied = w.routers.wait(next, routerWait)
			c.end(id)
			c.rec.toRouter = time.Since(t0).Seconds()
		}
	}
	c.stop()

	c.rec.res = res
	c.rec.serialBumps = int(w.cache.Serial() - serial)
	if actErr != nil {
		c.fail("%s %s: %v", a.kind, a.step, actErr)
	}
	if err != nil {
		c.fail("sync: %v", err)
		return
	}
	next := normalize(res.VRPs)
	announced, withdrawn := rov.DiffVRPs(w.last, next)
	w.last = next
	c.rec.delta = len(announced) + len(withdrawn)
	if !sameVRPs(announced, a.announced) || !sameVRPs(withdrawn, a.withdrawn) {
		c.fail("%s %s: delta +%d -%d VRPs, predicted +%d -%d", a.kind, a.step,
			len(announced), len(withdrawn), len(a.announced), len(a.withdrawn))
	}
	if !a.shrunk && len(res.Diagnostics) > 0 {
		c.fail("%s %s: %d diagnostics, first %v", a.kind, a.step, len(res.Diagnostics), res.Diagnostics[0])
	}
	if want := c.rec.delta > 0; want != (c.rec.serialBumps == 1) || c.rec.serialBumps > 1 {
		c.fail("%s %s: serial moved by %d for a %d-VRP delta", a.kind, a.step, c.rec.serialBumps, c.rec.delta)
	}
	if !applied {
		c.fail("routers did not apply serial %d within %v", w.cache.Serial(), routerWait)
	}
	if n := w.routers.mismatched(vrpDigest(next)); n > 0 {
		c.fail("%d of %d routers hold a VRP set other than the validator's", n, churnRouters)
	}
	if d := w.rtrSrv.Evictions() - evictions; d > 0 {
		c.fail("%d healthy routers evicted", d)
	}
	if d := w.routers.reconnects.Load() - reconnects; d > 0 {
		c.fail("%d router sessions dropped", d)
	}
}

func (w *churn) rtrCounters() (uint64, uint64) {
	return w.rtrSrv.Evictions(), w.rtrSrv.CacheResets()
}

func (w *churn) close() {
	if w.routers != nil {
		w.routers.close()
	}
	if w.rtrSrv != nil {
		_ = w.rtrSrv.Close()
	}
	_ = w.srv.stop()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"steady_poll", "churn_to_router"}

// reference is the VRP set every cold sync of a generated world must
// reproduce.
type reference struct {
	count  int
	digest [32]byte
}

// inProcessReference syncs a generated world in-process from its pack
// files (repo.DirFetcher), the path the BENCH_PR*.json figures measured;
// set-up's cold sync over TCP must agree with it.
func inProcessReference(sw *modelgen.ScaledWorld) (reference, error) {
	anchor, err := sw.Anchor()
	if err != nil {
		return reference{}, err
	}
	res, err := rp.New(rp.Config{Fetcher: sw.Fetcher(), Clock: sw.Clock()}, anchor).Sync(context.Background())
	if err != nil {
		return reference{}, fmt.Errorf("reference sync: %w", err)
	}
	if len(res.Diagnostics) > 0 || len(res.VRPs) == 0 {
		return reference{}, fmt.Errorf("reference sync: %d VRPs, %d diagnostics", len(res.VRPs), len(res.Diagnostics))
	}
	return reference{len(res.VRPs), vrpDigest(res.VRPs)}, nil
}

// prepare makes the named workload's inputs from seed under dir and
// returns its set-up function. For steady_poll the inputs are the scaled
// world's pack files, which every set-up loads, and the in-process
// reference; churn_to_router's world is built by its set-up, because its
// authorities mutate it.
func prepare(name, dir string, seed int64, tr *tracer) (func() (workload, error), error) {
	switch name {
	case "steady_poll":
		sw, err := modelgen.GenerateScaled(modelgen.ScaleConfig{Seed: seed, ROAs: modelgen.Tier10k, Dir: dir})
		if err != nil {
			return nil, fmt.Errorf("generating world: %w", err)
		}
		ref, err := inProcessReference(sw)
		if err != nil {
			return nil, err
		}
		return func() (workload, error) { return newSteadyPoll(sw, ref, tr) }, nil
	case "churn_to_router":
		return func() (workload, error) { return newChurn(seed, tr) }, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
