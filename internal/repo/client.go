package repo

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Client fetches publication-point contents over the rsynclite protocol.
// The zero Client uses sane defaults: 10s per request, no retries, no
// circuit breaking — one transport fault fails the affected operation, as a
// maximally brittle relying party would experience it. Production relying
// parties set Retry and Breakers so that flaky repositories converge and
// dead ones fail fast (see internal/rp for the last-known-good layer above).
type Client struct {
	// Timeout bounds each request/response exchange — one LIST, GET or
	// STAT, including the dial for its connection (default 10s). It is a
	// per-request deadline, re-armed before each reply on a pipelined
	// connection, so one slow object can no longer starve the rest of a
	// fetch; FetchAll and SyncIncremental layer SyncTimeout on top.
	Timeout time.Duration
	// SyncTimeout bounds a whole FetchAll or SyncIncremental call,
	// retries included (default 10× Timeout).
	SyncTimeout time.Duration
	// Dial overrides the dialer; used by the circular-dependency
	// experiments to make reachability depend on BGP route validity.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Concurrency is the number of parallel connections FetchAll spreads
	// its GETs across (default 1). Each connection is reused for its whole
	// shard of objects — the per-object cost is one pipelined
	// request/response, not a dial. Results are merged deterministically.
	Concurrency int
	// Retry governs per-request retries of transport failures.
	Retry RetryPolicy
	// Breakers, when set, fail requests to tripped publication points fast
	// instead of dialing into a dead or slow-loris repository. May be
	// shared between Clients.
	Breakers *BreakerSet

	// retries counts request attempts that were retried after a transport
	// failure (exact; exposed via Stats).
	retries atomic.Int64
	// fetchedBytes counts object content bytes received (exposed at scrape
	// time by Instrument).
	fetchedBytes atomic.Int64
	// rec receives retry events when the client is instrumented (nil
	// otherwise). Set once by Instrument before the client serves requests.
	rec *obs.FlightRecorder
}

// DegradationStats counts the resilience events a Client has observed since
// creation; deltas across a sync give exact per-sync counters.
type DegradationStats struct {
	// Retries counts request attempts repeated after a transport failure.
	Retries int64
	// BreakerTrips counts circuit-breaker transitions to open.
	BreakerTrips int64
	// BreakerFastFails counts requests refused while a breaker was open.
	BreakerFastFails int64
}

// Stats snapshots the client's degradation counters.
func (c *Client) Stats() DegradationStats {
	if c == nil {
		return DegradationStats{}
	}
	return DegradationStats{
		Retries:          c.retries.Load(),
		BreakerTrips:     c.Breakers.Trips(),
		BreakerFastFails: c.Breakers.FastFails(),
	}
}

func (c *Client) concurrency() int {
	if c == nil || c.Concurrency < 1 {
		return 1
	}
	return c.Concurrency
}

func (c *Client) timeout() time.Duration {
	if c == nil || c.Timeout == 0 {
		return 10 * time.Second
	}
	return c.Timeout
}

func (c *Client) syncTimeout() time.Duration {
	if c == nil || c.SyncTimeout == 0 {
		return 10 * c.timeout()
	}
	return c.SyncTimeout
}

func (c *Client) dial(ctx context.Context, addr string) (net.Conn, error) {
	if c != nil && c.Dial != nil {
		return c.Dial(ctx, "tcp", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// pipeWindow is the most requests one connection has in flight: a window
// of requests goes out in one write before any reply is read. Typical
// request lines are about 64 bytes, so a full window is about 4 KiB;
// pipeWindowBytes additionally closes a window early when long object
// names (up to 512 bytes each) would make it larger. Either way the
// requests in flight stay far below what a socket buffers for a peer that
// is not reading, so client and server can never both block writing.
const (
	pipeWindow      = 64
	pipeWindowBytes = 8 << 10
)

// verb is a request kind.
type verb uint8

const (
	verbList verb = iota
	verbGet
	verbStat
)

func (v verb) String() string {
	switch v {
	case verbList:
		return "LIST"
	case verbGet:
		return "GET"
	}
	return "STAT"
}

// exchange is one request to a publication point and, once answered, its
// reply. err holds the request's own answer when the server rejected it
// (an ERR line or a malformed reply, both permanent); transport failures
// never land here — they are retried, and an exhausted one ends the whole
// pipeline instead.
type exchange struct {
	verb verb
	// name is the object name (GET and STAT; empty for LIST).
	name string
	// body (GET), info (STAT) and list (LIST) hold a successful reply.
	body []byte
	info ObjectInfo
	list map[string]int
	err  error
}

// writeRequest appends the request line to w and returns its length.
// Errors are sticky in the bufio.Writer and surface at Flush.
func (x *exchange) writeRequest(w *bufio.Writer, module string) int {
	n := len(x.verb.String()) + 1 + len(module) + 1
	_, _ = w.WriteString(x.verb.String())
	_ = w.WriteByte(' ')
	_, _ = w.WriteString(module)
	if x.verb != verbList {
		_ = w.WriteByte(' ')
		_, _ = w.WriteString(x.name)
		n += 1 + len(x.name)
	}
	_ = w.WriteByte('\n')
	return n
}

// readReply reads the request's reply from r, filling the reply fields on
// success. Permanent errors are the server's answer; any other error is a
// transport failure.
func (x *exchange) readReply(r *bufio.Reader, c *Client) error {
	switch x.verb {
	case verbList:
		list, err := readList(r)
		x.list = list
		return err
	case verbGet:
		header, err := readLine(r)
		if err != nil {
			return fmt.Errorf("repo: reading GET response: %w", err)
		}
		size, err := parseOKCount(header, MaxObjectSize)
		if err != nil {
			return err
		}
		content := make([]byte, size)
		if _, err := io.ReadFull(r, content); err != nil {
			return fmt.Errorf("repo: reading object body: %w", err)
		}
		x.body = content
		c.countBytes(size)
		return nil
	default:
		line, err := readLineBytes(r)
		if err != nil {
			return fmt.Errorf("repo: reading STAT response: %w", err)
		}
		x.info, err = parseStatLine(line)
		return err
	}
}

// readList reads a LIST reply: the header, then one line per entry.
func readList(r *bufio.Reader) (map[string]int, error) {
	header, err := readLine(r)
	if err != nil {
		return nil, fmt.Errorf("repo: reading LIST response: %w", err)
	}
	n, err := parseOKCount(header, MaxListEntries)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int, n)
	for i := 0; i < n; i++ {
		line, err := readLine(r)
		if err != nil {
			return nil, fmt.Errorf("repo: reading LIST entry: %w", err)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, malformed(fmt.Errorf("repo: malformed LIST entry %q", line))
		}
		size, err := strconv.Atoi(fields[1])
		if err != nil || size < 0 || size > MaxObjectSize {
			return nil, malformed(fmt.Errorf("repo: bad size in LIST entry %q", line))
		}
		out[fields[0]] = size
	}
	return out, nil
}

// pointConn is one reusable connection to a publication point, with
// pipelined requests, per-request deadlines, breaker gating at (re)dial,
// and retry with exponential backoff on transport failures. Context
// cancellation closes the live connection immediately, so a sync aborts
// promptly even mid-read.
type pointConn struct {
	c    *Client
	uri  URI
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	stop func() bool // cancels the ctx→Close watcher
}

func (pc *pointConn) key() string { return pc.uri.String() }

// ensure dials the point if no connection is live. The circuit breaker is
// consulted here: every transport failure drops the connection, so gating
// redials gates exactly the failure paths.
func (pc *pointConn) ensure(ctx context.Context) error {
	if pc.conn != nil {
		return nil
	}
	if err := pc.c.Breakers.Allow(pc.key()); err != nil {
		return err
	}
	dctx, cancel := context.WithTimeout(ctx, pc.c.timeout())
	defer cancel()
	conn, err := pc.c.dial(dctx, pc.uri.Host)
	if err != nil {
		pc.c.Breakers.Failure(pc.key())
		return fmt.Errorf("repo: dial %s: %w", pc.uri.Host, err)
	}
	// Arm a deadline before anything wraps or touches the conn: even a
	// caller that skips arm() can never do unbounded I/O on it, and a conn
	// that refuses its deadline is discarded instead of trusted.
	if err := conn.SetDeadline(pc.deadline(ctx)); err != nil {
		_ = conn.Close()
		pc.c.Breakers.Failure(pc.key())
		return fmt.Errorf("repo: arming deadline on %s: %w", pc.uri.Host, err)
	}
	pc.conn = conn
	pc.r = bufio.NewReader(conn)
	pc.w = bufio.NewWriter(conn)
	// A canceled context must interrupt a blocked read, not wait out the
	// per-request deadline.
	pc.stop = context.AfterFunc(ctx, func() { _ = conn.Close() })
	return nil
}

// deadline is the per-request deadline: Timeout from now, clipped to the
// context's overall deadline.
func (pc *pointConn) deadline(ctx context.Context) time.Time {
	d := time.Now().Add(pc.c.timeout())
	if dl, ok := ctx.Deadline(); ok && dl.Before(d) {
		d = dl
	}
	return d
}

// arm sets the per-request deadline on the live connection. An error means
// the connection refused it and must be dropped — an unarmed conn must
// never be used, because unbounded I/O is exactly the slow-loris surface
// the deadline exists to close.
func (pc *pointConn) arm(ctx context.Context) error {
	if err := pc.conn.SetDeadline(pc.deadline(ctx)); err != nil {
		return fmt.Errorf("repo: arming deadline: %w", err)
	}
	return nil
}

// drop closes and forgets the connection.
func (pc *pointConn) drop() {
	if pc.stop != nil {
		pc.stop()
		pc.stop = nil
	}
	if pc.conn != nil {
		_ = pc.conn.Close()
		pc.conn = nil
		pc.r = nil
		pc.w = nil
	}
}

// pipeline runs every exchange in xs, in order, over the point's
// connection: requests go out a window at a time (see window) and replies
// are read in request order. A server rejection (permanent error) is
// recorded on its exchange and the pipeline continues. A transport failure
// drops the connection, counts against the breaker and is charged as one
// retry to the oldest unanswered exchange; after the backoff only the
// unanswered exchanges are sent again. Every answered reply resets the
// retry budget, so each request gets Retry.MaxRetries retries exactly as
// if it ran alone. The pipeline stops at the first failure it cannot
// retry — retries exhausted, breaker open, context done — and returns the
// index of the exchange that failure is charged to with the error; it
// returns (len(xs), nil) once every exchange is answered.
func (pc *pointConn) pipeline(ctx context.Context, xs []exchange) (int, error) {
	done, attempt := 0, 0
	var lastErr error
	for done < len(xs) {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return done, lastErr
			}
			return done, err
		}
		err := pc.ensure(ctx)
		if err == nil {
			var n int
			n, err = pc.window(ctx, xs[done:])
			if n > 0 {
				done += n
				attempt, lastErr = 0, nil
			}
			if err == nil {
				continue
			}
			pc.c.Breakers.Failure(pc.key())
			pc.drop()
		} else if !Retryable(err) {
			// Circuit open (or context dead): fail fast, no backoff.
			return done, err
		}
		lastErr = err
		if attempt >= pc.c.retryPolicy().MaxRetries {
			return done, lastErr
		}
		pc.c.retries.Add(1)
		pc.c.recordRetry(pc.key(), lastErr)
		if werr := pc.c.retryPolicy().wait(ctx, attempt); werr != nil {
			return done, lastErr
		}
		attempt++
	}
	return done, nil
}

// window sends the next window of xs — up to pipeWindow requests or
// pipeWindowBytes of request lines — in one write, then reads their
// replies in order, re-arming the per-request deadline before each. It
// returns how many exchanges were answered; a non-nil error is a transport
// failure that leaves the connection unusable. A malformed reply answers
// its exchange but drops the connection, ending the window early.
func (pc *pointConn) window(ctx context.Context, xs []exchange) (int, error) {
	if err := pc.arm(ctx); err != nil {
		return 0, err
	}
	n, size := 0, 0
	for n < len(xs) && n < pipeWindow && size < pipeWindowBytes {
		size += xs[n].writeRequest(pc.w, pc.uri.Module)
		n++
	}
	if err := pc.w.Flush(); err != nil {
		return 0, fmt.Errorf("repo: sending requests: %w", err)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := pc.arm(ctx); err != nil {
				return i, err
			}
		}
		x := &xs[i]
		err := x.readReply(pc.r, pc.c)
		if Retryable(err) {
			return i, err
		}
		// The exchange completed: the server is alive, whatever it said.
		x.err = err
		pc.c.Breakers.Success(pc.key())
		if desynced(err) {
			pc.drop()
			return i + 1, nil
		}
	}
	return n, nil
}

// request runs one exchange — the pipeline's one-request case. The error
// is a failure the pipeline could not retry or the server's rejection.
func (pc *pointConn) request(ctx context.Context, v verb, name string) (exchange, error) {
	xs := []exchange{{verb: v, name: name}}
	if _, err := pc.pipeline(ctx, xs); err != nil {
		return xs[0], err
	}
	return xs[0], xs[0].err
}

// list runs one LIST exchange on the point's connection.
func (pc *pointConn) list(ctx context.Context) (map[string]int, error) {
	x, err := pc.request(ctx, verbList, "")
	return x.list, err
}

func (c *Client) retryPolicy() RetryPolicy {
	if c == nil {
		return RetryPolicy{}
	}
	return c.Retry
}

// List returns the object names and sizes available in the module.
func (c *Client) List(ctx context.Context, uri URI) (map[string]int, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	pc := &pointConn{c: c, uri: uri}
	defer pc.drop()
	return pc.list(ctx)
}

// Get fetches one object from the module.
func (c *Client) Get(ctx context.Context, uri URI, name string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	pc := &pointConn{c: c, uri: uri}
	defer pc.drop()
	x, err := pc.request(ctx, verbGet, name)
	return x.body, err
}

// Stat fetches an object's size and hash without its content.
func (c *Client) Stat(ctx context.Context, uri URI, name string) (ObjectInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	pc := &pointConn{c: c, uri: uri}
	defer pc.drop()
	x, err := pc.request(ctx, verbStat, name)
	return x.info, err
}

// sortedNames returns a listing's names in sorted order.
func sortedNames(list map[string]int) []string {
	names := make([]string, 0, len(list))
	for name := range list {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// FetchAll lists the module and downloads every object, pipelining GETs
// over up to Concurrency reused connections (the first one is the LIST's),
// returning name → content. Objects that fail mid-fetch are reported via
// the error; partial results are returned so a relying party can reason
// about incomplete information (Side Effect 6). The first error is chosen
// deterministically (smallest affected object name) regardless of
// connection scheduling.
func (c *Client) FetchAll(ctx context.Context, uri URI) (map[string][]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	pc := &pointConn{c: c, uri: uri}
	defer pc.drop()
	list, err := pc.list(ctx)
	if err != nil {
		return nil, err
	}
	ordered := sortedNames(list)
	if len(ordered) == 0 {
		return make(map[string][]byte), nil
	}

	shards := min(c.concurrency(), len(ordered))
	results := make([]shardResult, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		// Round-robin over sorted names: shard s fetches ordered[s::shards].
		spc := pc
		if s > 0 {
			spc = &pointConn{c: c, uri: uri}
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer spc.drop()
			results[s] = spc.fetchShard(ctx, ordered, s, shards)
		}(s)
	}
	wg.Wait()

	out := make(map[string][]byte, len(ordered))
	var firstErr error
	var firstErrName string
	for _, res := range results {
		for name, content := range res.files {
			out[name] = content
		}
		if res.err != nil && (firstErr == nil || res.errName < firstErrName) {
			firstErr, firstErrName = res.err, res.errName
		}
	}
	return out, firstErr
}

// shardResult is one FetchAll shard's partial result.
type shardResult struct {
	files map[string][]byte
	// errName orders errors canonically: the smallest object name the
	// shard's error applies to.
	errName string
	err     error
}

// fail records err against object name, keeping the smallest name's.
func (res *shardResult) fail(name string, err error) {
	if res.err == nil || name < res.errName {
		res.errName, res.err = name, fmt.Errorf("repo: object %q: %w", name, err)
	}
}

// fetchShard downloads every shards-th name starting at offset s through
// one pipeline. A protocol-level ERR for an object is recorded and the
// shard continues; an exhausted transport failure or an open breaker
// aborts the shard with its partial results.
func (pc *pointConn) fetchShard(ctx context.Context, ordered []string, s, shards int) shardResult {
	xs := make([]exchange, 0, (len(ordered)-s+shards-1)/shards)
	for i := s; i < len(ordered); i += shards {
		xs = append(xs, exchange{verb: verbGet, name: ordered[i]})
	}
	res := shardResult{files: make(map[string][]byte, len(xs))}
	n, err := pc.pipeline(ctx, xs)
	for _, x := range xs[:n] {
		if x.err != nil {
			res.fail(x.name, x.err)
			continue
		}
		res.files[x.name] = x.body
	}
	if err != nil {
		res.fail(xs[n].name, err)
	}
	return res
}

// ObjectInfo is a STAT result.
type ObjectInfo struct {
	// Size is the object's size in bytes.
	Size int
	// Hash is the SHA-256 of the content as served (faults included).
	Hash [32]byte
}

// parseStatLine parses a STAT reply. Only an ERR line leaves the
// connection usable; any other unparseable reply is malformed.
func parseStatLine(line []byte) (ObjectInfo, error) {
	fields := bytes.Fields(line)
	if len(fields) != 3 || string(fields[0]) != "OK" {
		if len(fields) > 0 && string(fields[0]) == "ERR" {
			return ObjectInfo{}, permanent(fmt.Errorf("repo: server error: %s", bytes.TrimPrefix(line, []byte("ERR "))))
		}
		return ObjectInfo{}, malformed(fmt.Errorf("repo: malformed STAT response %q", line))
	}
	size, err := strconv.Atoi(string(fields[1]))
	if err != nil || size < 0 || size > MaxObjectSize {
		return ObjectInfo{}, malformed(fmt.Errorf("repo: bad size in %q", line))
	}
	info := ObjectInfo{Size: size}
	if hex.DecodedLen(len(fields[2])) != len(info.Hash) {
		return ObjectInfo{}, malformed(fmt.Errorf("repo: bad hash in %q", line))
	}
	if _, err := hex.Decode(info.Hash[:], fields[2]); err != nil {
		return ObjectInfo{}, malformed(fmt.Errorf("repo: bad hash in %q", line))
	}
	return info, nil
}

// SyncResult reports what an incremental sync did.
type SyncResult struct {
	// Files is the complete, post-sync content map.
	Files map[string][]byte
	// Downloaded counts objects actually transferred.
	Downloaded int
	// Reused counts objects kept from the previous snapshot.
	Reused int
	// Removed counts objects that disappeared from the module.
	Removed int
	// Unchanged reports that the module is byte-identical to the previous
	// snapshot: every object's server-reported STAT hash matched the local
	// copy, nothing was downloaded, nothing was removed. False on a first
	// sync (nil prev) even for an empty module.
	Unchanged bool
}

// SyncIncremental brings prev (a previous FetchAll/SyncIncremental result;
// may be nil) up to date, transferring only objects whose STAT hash differs
// — the rsync-style delta mode. It returns the new complete snapshot.
//
// The whole call runs on one connection: LIST, then one pipeline that
// STATs every object whose size matches prev and GETs the rest, then one
// pipeline that GETs the objects whose STAT hash differed. Transport
// failures retry per the RetryPolicy (redialing as needed); an exhausted
// failure fails the sync so the caller can fall back to its previous
// snapshot.
func (c *Client) SyncIncremental(ctx context.Context, uri URI, prev map[string][]byte) (*SyncResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.syncTimeout())
	defer cancel()
	pc := &pointConn{c: c, uri: uri}
	defer pc.drop()
	list, err := pc.list(ctx)
	if err != nil {
		return nil, err
	}
	res := &SyncResult{Files: make(map[string][]byte, len(list))}
	ordered := sortedNames(list)
	xs := make([]exchange, len(ordered))
	for i, name := range ordered {
		xs[i] = exchange{verb: verbGet, name: name}
		if old, have := prev[name]; have && len(old) == list[name] {
			// Sizes match: confirm with STAT before skipping the download.
			xs[i].verb = verbStat
		}
	}
	if err := pc.syncPipeline(ctx, xs); err != nil {
		return nil, err
	}
	var refetch []exchange
	for i := range xs {
		x := &xs[i]
		switch {
		case x.verb == verbStat && x.err == nil && x.info.Hash == sha256.Sum256(prev[x.name]):
			res.Files[x.name] = prev[x.name]
			res.Reused++
		case x.verb == verbStat:
			// STAT rejected or hash changed: download it.
			refetch = append(refetch, exchange{verb: verbGet, name: x.name})
		case x.err == nil:
			res.Files[x.name] = x.body
			res.Downloaded++
		}
		// A rejected GET: vanished between LIST and GET; treat as absent.
	}
	if err := pc.syncPipeline(ctx, refetch); err != nil {
		return nil, err
	}
	for _, x := range refetch {
		if x.err == nil {
			res.Files[x.name] = x.body
			res.Downloaded++
		}
	}
	for name := range prev {
		if _, still := res.Files[name]; !still {
			res.Removed++
		}
	}
	// Downloaded == 0 means every listed object was hash-verified against
	// the previous snapshot; Removed == 0 means nothing vanished — together
	// they prove byte-identity with prev.
	res.Unchanged = prev != nil && res.Downloaded == 0 && res.Removed == 0
	return res, nil
}

// syncPipeline runs xs for SyncIncremental, naming the exchange a fatal
// failure is charged to.
func (pc *pointConn) syncPipeline(ctx context.Context, xs []exchange) error {
	i, err := pc.pipeline(ctx, xs)
	if err == nil {
		return nil
	}
	if xs[i].verb == verbStat {
		return fmt.Errorf("repo: STAT %q: %w", xs[i].name, err)
	}
	return fmt.Errorf("repo: fetching %q: %w", xs[i].name, err)
}
