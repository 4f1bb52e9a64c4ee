package main

import (
	"bytes"
	"context"
	"net"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/repo"
)

// tracedFetcher wraps the relying party's repository client in the traced
// run. It has exactly the client's exported method set, so the relying
// party's optional-interface checks (incremental fetch, degradation stats)
// take the same paths as with the bare client; only FetchAll and
// SyncIncremental — the calls the relying party makes per publication
// point — are timed.
type tracedFetcher struct {
	c     *repo.Client
	t     *tracer
	calls *atomic.Int64
}

func (f *tracedFetcher) FetchAll(ctx context.Context, uri repo.URI) (map[string][]byte, error) {
	id := f.t.beginScoped("repo.fetch")
	defer f.t.end(id)
	f.calls.Add(1)
	return f.c.FetchAll(ctx, uri)
}

func (f *tracedFetcher) SyncIncremental(ctx context.Context, uri repo.URI, prev map[string][]byte) (*repo.SyncResult, error) {
	id := f.t.beginScoped("repo.fetch")
	defer f.t.end(id)
	f.calls.Add(1)
	return f.c.SyncIncremental(ctx, uri, prev)
}

func (f *tracedFetcher) Stats() repo.DegradationStats { return f.c.Stats() }

func (f *tracedFetcher) List(ctx context.Context, uri repo.URI) (map[string]int, error) {
	return f.c.List(ctx, uri)
}

func (f *tracedFetcher) Get(ctx context.Context, uri repo.URI, name string) ([]byte, error) {
	return f.c.Get(ctx, uri, name)
}

func (f *tracedFetcher) Stat(ctx context.Context, uri repo.URI, name string) (repo.ObjectInfo, error) {
	return f.c.Stat(ctx, uri, name)
}

func (f *tracedFetcher) Instrument(hub *obs.Hub) { f.c.Instrument(hub) }

// connCounter counts what crosses the client's connections: dials,
// request lines written (every LIST, GET and STAT is one line) and bytes
// read.
type connCounter struct {
	dials, requests, bytesIn atomic.Int64
}

type dialFunc = func(ctx context.Context, network, addr string) (net.Conn, error)

// wrap returns a dialer that counts through cc and otherwise behaves as
// dial.
func (cc *connCounter) wrap(dial dialFunc) dialFunc {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		conn, err := dial(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		cc.dials.Add(1)
		return &countedConn{Conn: conn, cc: cc}, nil
	}
}

// countedConn forwards to the dialed connection; deadlines set by the
// repository client pass straight through the embedded Conn.
type countedConn struct {
	net.Conn
	cc *connCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	//lint:ignore deadlinebeforeio transparent wrapper: the repository client arms deadlines on this conn, and SetDeadline is forwarded to the wrapped one
	n, err := c.Conn.Read(p)
	c.cc.bytesIn.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.cc.requests.Add(int64(bytes.Count(p, []byte{'\n'})))
	//lint:ignore deadlinebeforeio transparent wrapper: the repository client arms deadlines on this conn, and SetDeadline is forwarded to the wrapped one
	return c.Conn.Write(p)
}
