package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rpkirisk "repro"
	"repro/internal/modelgen"
	"repro/internal/repo"
	"repro/internal/rp"
	"repro/internal/rtr"
)

// Daemon defaults: cmd/rpki-rp's flag defaults, which the benchmark's
// relying party, repository client and RTR server copy.
const (
	daemonRequestTimeout   = 10 * time.Second
	daemonMaxRetries       = 3
	daemonBreakerThreshold = 5
	daemonBreakerCooldown  = 30 * time.Second
	daemonStaleTTL         = time.Hour
	daemonRTRSendQueue     = 32
	daemonRTRWriteTimeout  = 30 * time.Second
)

// routerWait bounds how long an operation waits for the routers to apply
// a new serial before it counts as failed.
const routerWait = 10 * time.Second

// served is a world published over TCP on loopback, plus what a relying
// party needs to validate it.
type served struct {
	stores rp.StoreFetcher
	anchor rp.TrustAnchor
	clock  func() time.Time
	addr   string
	stop   func() error
}

// serve publishes stores on an ephemeral loopback port.
func serve(stores rp.StoreFetcher) (addr string, stop func() error, err error) {
	addr, stop, err = rpkirisk.Serve(&rpkirisk.World{Stores: stores}, "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("serving world: %w", err)
	}
	host, _, err := net.SplitHostPort(addr)
	if ip := net.ParseIP(host); err != nil || ip == nil || !ip.IsLoopback() {
		_ = stop()
		return "", nil, fmt.Errorf("publication server bound to %s, not loopback", addr)
	}
	return addr, stop, nil
}

// serveScaled loads a generated world's pack files into in-memory stores
// and serves them.
func serveScaled(sw *modelgen.ScaledWorld) (*served, error) {
	anchor, err := sw.Anchor()
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(sw.Dir)
	if err != nil {
		return nil, err
	}
	stores := make(rp.StoreFetcher)
	for _, e := range entries {
		module, ok := strings.CutSuffix(e.Name(), ".pp")
		if !ok {
			continue
		}
		files, err := repo.ReadPackFile(filepath.Join(sw.Dir, e.Name()))
		if err != nil {
			return nil, err
		}
		st := repo.NewStore()
		st.Replace(files)
		stores[module] = st
	}
	addr, stop, err := serve(stores)
	if err != nil {
		return nil, err
	}
	return &served{stores: stores, anchor: anchor, clock: sw.Clock(), addr: addr, stop: stop}, nil
}

// repoCounter counts the repository layer's work in the traced run.
type repoCounter struct {
	calls atomic.Int64
	connCounter
}

type repoCounts struct{ calls, dials, requests, bytesIn int64 }

func (r *repoCounter) read() repoCounts {
	return repoCounts{r.calls.Load(), r.dials.Load(), r.requests.Load(), r.bytesIn.Load()}
}

func (a repoCounts) minus(b repoCounts) repoCounts {
	return repoCounts{a.calls - b.calls, a.dials - b.dials, a.requests - b.requests, a.bytesIn - b.bytesIn}
}

// newRelyingParty returns a relying party set up as cmd/rpki-rp sets one up
// with its default flags — TCP client with per-request timeout, retries,
// circuit breakers and Concurrency = GOMAXPROCS; validation Workers =
// GOMAXPROCS; CacheSnapshots; a one-hour stale TTL — except that it reads
// the world's clock. With a tracer, its client is wrapped for the traced
// run and counts into rc.
func newRelyingParty(s *served, tr *tracer, rc *repoCounter) *rp.RelyingParty {
	client := rpkirisk.ClientFor(s.addr, daemonRequestTimeout)
	client.Concurrency = runtime.GOMAXPROCS(0)
	client.Retry = repo.RetryPolicy{MaxRetries: daemonMaxRetries}
	client.Breakers = repo.NewBreakerSet(repo.BreakerConfig{
		FailureThreshold: daemonBreakerThreshold,
		Cooldown:         daemonBreakerCooldown,
	})
	var fetcher rp.Fetcher = client
	if tr != nil {
		client.Dial = rc.wrap(client.Dial)
		fetcher = &tracedFetcher{c: client, t: tr, calls: &rc.calls}
	}
	return rp.New(rp.Config{
		Fetcher:        fetcher,
		Clock:          s.clock,
		Policy:         rp.BestEffort,
		StaleTTL:       daemonStaleTTL,
		CacheSnapshots: true,
	}, s.anchor)
}

// newRTRServer serves cache on an ephemeral loopback port with the
// daemon's default fleet limits.
func newRTRServer(cache *rtr.Cache) (*rtr.Server, string, error) {
	srv := rtr.NewServer(cache)
	srv.SendQueue = daemonRTRSendQueue
	srv.WriteTimeout = daemonRTRWriteTimeout
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("serving RTR: %w", err)
	}
	return srv, addr, nil
}

// fleet is a set of RTR routers, each kept connected by its own goroutine.
type fleet struct {
	routers []*rtr.Client
	// bell is rung (without blocking) whenever any router applies a
	// serial; wait re-checks every router after each ring, so one slot is
	// enough.
	bell       chan struct{}
	reconnects atomic.Int64
	cancel     context.CancelFunc
	wg         sync.WaitGroup
}

func startFleet(addr string, n int) *fleet {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{bell: make(chan struct{}, 1), cancel: cancel}
	for i := 0; i < n; i++ {
		c := rtr.NewClient(addr)
		c.OnSerial(func(uint32) {
			select {
			case f.bell <- struct{}{}:
			default:
			}
		})
		f.routers = append(f.routers, c)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				_ = c.Run(ctx) // a dropped session is counted and redialed
				if ctx.Err() != nil {
					return
				}
				f.reconnects.Add(1)
				select {
				case <-ctx.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}
	return f
}

// wait blocks until every router has applied serial, or timeout passes.
func (f *fleet) wait(serial uint32, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		done := true
		for _, c := range f.routers {
			if !c.Synced() || c.Serial() != serial {
				done = false
				break
			}
		}
		if done {
			return true
		}
		select {
		case <-f.bell:
		case <-timer.C:
			return false
		}
	}
}

// mismatched returns how many routers hold a VRP set other than want.
func (f *fleet) mismatched(want [32]byte) int {
	n := 0
	for _, c := range f.routers {
		if vrpDigest(c.VRPs()) != want {
			n++
		}
	}
	return n
}

// close stops every router and waits for their goroutines.
func (f *fleet) close() {
	f.cancel()
	f.wg.Wait()
}
