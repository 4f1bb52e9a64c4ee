package repo

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// windowedFiles is a module larger than two pipeline windows.
func windowedFiles(n int) map[string][]byte {
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("obj-%03d.roa", i)] = []byte(fmt.Sprintf("content of object %d", i))
	}
	return files
}

// countDials makes c count its dials.
func countDials(c *Client) *atomic.Int64 {
	var n atomic.Int64
	c.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}
	return &n
}

func TestSyncIncrementalOneDialPerCall(t *testing.T) {
	files := windowedFiles(150)
	uri, store, _ := startTestServer(t, files)
	c := &Client{Timeout: 5 * time.Second}
	dials := countDials(c)
	ctx := context.Background()

	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Downloaded != 150 || dials.Load() != 1 {
		t.Fatalf("cold sync: downloaded %d over %d dials, want 150 over 1", cold.Downloaded, dials.Load())
	}
	// A changed object makes the warm sync STAT, then GET: still one dial.
	store.Put("obj-100.roa", []byte("CONTENT OF OBJECT 100"))
	warm, err := c.SyncIncremental(ctx, uri, cold.Files)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Reused != 149 || warm.Downloaded != 1 || dials.Load() != 2 {
		t.Fatalf("warm sync: %d reused, %d downloaded over %d dials in total, want 149, 1, 2",
			warm.Reused, warm.Downloaded, dials.Load())
	}
	if string(warm.Files["obj-100.roa"]) != "CONTENT OF OBJECT 100" {
		t.Error("changed object not refreshed")
	}
}

func TestPipelineFaultRateRetriesExact(t *testing.T) {
	files := windowedFiles(150)
	uri, _, faults := startTestServer(t, files)
	c := &Client{Timeout: 2 * time.Second, Retry: fastRetry(2)}
	ctx := context.Background()
	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every other request drops the connection. Each drop is charged to
	// the oldest unanswered request and only unanswered requests are sent
	// again, so every request fails exactly once.
	faults.FailRate("", 1, 2)
	before := c.Stats().Retries
	warm, err := c.SyncIncremental(ctx, uri, cold.Files)
	if err != nil {
		t.Fatalf("flaky delta sync should converge: %v", err)
	}
	if warm.Reused != 150 || warm.Downloaded != 0 {
		t.Errorf("warm sync: reused %d, downloaded %d", warm.Reused, warm.Downloaded)
	}
	if d := c.Stats().Retries - before; d != 151 {
		t.Errorf("retries = %d, want 151 (LIST + 150 STATs, once each)", d)
	}
}

func TestPipelineTruncatedStatMidWindow(t *testing.T) {
	files := windowedFiles(150)
	uri, _, faults := startTestServer(t, files)
	c := &Client{Timeout: time.Second, Retry: fastRetry(1)}
	ctx := context.Background()
	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	faults.TruncateStat("obj-100.roa")
	_, err = c.SyncIncremental(ctx, uri, cold.Files)
	if err == nil {
		t.Fatal("a torn STAT in the middle of a window must fail the sync")
	}
	if !strings.Contains(err.Error(), "obj-100.roa") {
		t.Errorf("error should name the torn object: %v", err)
	}
	got, err := c.FetchAll(ctx, uri)
	if err != nil {
		t.Fatalf("full fetch must survive a STAT-only fault: %v", err)
	}
	if len(got) != 150 || string(got["obj-100.roa"]) != string(files["obj-100.roa"]) {
		t.Errorf("full fetch returned %d objects", len(got))
	}
}

func TestPipelineDelayedObjectBoundedPerRequest(t *testing.T) {
	files := windowedFiles(150)
	uri, _, faults := startTestServer(t, files)
	const timeout = 200 * time.Millisecond
	const maxRetries = 2
	c := &Client{Timeout: timeout, Retry: fastRetry(maxRetries)}
	ctx := context.Background()
	cold, err := c.SyncIncremental(ctx, uri, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A stall in the middle of the second window: the requests before it
	// are answered promptly, and the stall costs one Timeout per attempt
	// on the stalled request, not one per window slot behind it.
	faults.DelayObject("obj-070.roa", 2*time.Second)
	start := time.Now()
	_, err = c.SyncIncremental(ctx, uri, cold.Files)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("a stalled object must fail the sync")
	}
	if !strings.Contains(err.Error(), "obj-070.roa") {
		t.Errorf("the stall must be charged to the stalled object: %v", err)
	}
	budget := (maxRetries + 1) * timeout
	if elapsed < budget || elapsed > budget+700*time.Millisecond {
		t.Errorf("failed after %v, want about %v ((MaxRetries+1)×Timeout)", elapsed, budget)
	}
}

func TestServerAnswersPipelinedRequestsInOrder(t *testing.T) {
	files := map[string][]byte{"a.cer": []byte("alpha"), "b.roa": []byte("beta!")}
	uri, _, _ := startTestServer(t, files)
	conn, err := net.Dial("tcp", uri.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	hash := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	reqs := []struct{ req, want string }{
		{"STAT test b.roa", "OK 5 " + hash(files["b.roa"]) + "\n"},
		{"GET test a.cer", "OK 5\nalpha"},
		{"STAT test missing", `ERR no such object "missing"` + "\n"},
		{"LIST test", "OK 2\na.cer 5\nb.roa 5\n"},
		{"GET test b.roa", "OK 5\nbeta!"},
		{"STAT test a.cer", "OK 5 " + hash(files["a.cer"]) + "\n"},
	}
	var batch, want strings.Builder
	for _, r := range reqs {
		batch.WriteString(r.req + "\n")
		want.WriteString(r.want)
	}
	batch.WriteString("QUIT\n")
	if _, err := conn.Write([]byte(batch.String())); err != nil {
		t.Fatal(err)
	}
	// QUIT makes the server close the connection after the last reply.
	all, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != want.String() {
		t.Errorf("replies to %d pipelined requests:\n got %q\nwant %q", len(reqs), all, want.String())
	}
}

// rawServer answers each request line with the canned reply for it (LF
// included) and closes the connection on any other request. It returns the
// server address and its count of accepted connections.
func rawServer(t *testing.T, replies map[string]string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					reply, ok := replies[strings.TrimSuffix(line, "\n")]
					if !ok {
						return
					}
					if _, err := conn.Write([]byte(reply)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &accepted
}

func TestMalformedReplyDropsConnection(t *testing.T) {
	cases := []struct {
		name   string
		replyA string
		dials  int64
	}{
		// A header the client cannot frame, followed by a body that looks
		// like the next reply: reading on would hand b the body of a.
		{"malformed header", "OK abc\nOK 4\nEVIL", 2},
		// An ERR answers a alone; the connection stays in step.
		{"ERR line", "ERR gone\n", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepted := rawServer(t, map[string]string{
				"LIST m":  "OK 2\na 4\nb 4\n",
				"GET m a": tc.replyA,
				"GET m b": "OK 4\ngood",
			})
			c := &Client{Timeout: 5 * time.Second}
			got, err := c.FetchAll(context.Background(), URI{Host: addr, Module: "m"})
			if err == nil || !strings.Contains(err.Error(), `"a"`) {
				t.Errorf("error should name object a, got %v", err)
			}
			if Retryable(err) {
				t.Errorf("a rejected object is not a transport failure: %v", err)
			}
			if _, ok := got["a"]; ok {
				t.Error("rejected object a must be absent")
			}
			if string(got["b"]) != "good" {
				t.Errorf("b = %q, want %q", got["b"], "good")
			}
			if n := accepted.Load(); n != tc.dials {
				t.Errorf("connections = %d, want %d", n, tc.dials)
			}
		})
	}
}
