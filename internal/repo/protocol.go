package repo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The rsynclite wire protocol. All requests and response headers are single
// CRLF-free LF-terminated lines of printable ASCII; file contents are raw
// bytes with a declared length. This stands in for the rsync protocol the
// RPKI mandates (RFC 6481 section 2.2): the paper's results depend only on
// which objects a relying party can retrieve over TCP/IP, not on rsync's
// delta encoding.
//
//	Request:  LIST <module>
//	Response: OK <n>            then n lines: <name> <size>
//
//	Request:  GET <module> <name>
//	Response: OK <size>         then <size> raw bytes
//
//	Request:  STAT <module> <name>
//	Response: OK <size> <sha256-hex>
//
//	Any error: ERR <message>
//
// STAT lets a client skip re-downloading unchanged objects — the delta
// behavior that makes rsync rsync.
//
// Requests may be pipelined: a client may send several requests before
// reading any reply, and the server answers them strictly in request order
// on the same connection. The Client keeps a window of at most pipeWindow
// (64) requests in flight per connection, written in one batch — about
// 4 KiB of request lines, far less than a socket buffers for a peer that is
// not reading, so client and server never both block writing. It reads the
// replies in order and re-arms the per-request deadline (Client.Timeout)
// before each one, so every exchange stays bounded as if it ran alone. A
// transport failure is charged as one retry to the oldest unanswered
// request, and only the unanswered requests are sent again on a fresh
// connection; each answered reply resets the retry budget. An ERR line
// answers its one request and leaves the connection usable; a reply the
// client cannot frame (a malformed header, count, listing entry or STAT
// line) ends the connection, because the bytes after it cannot be trusted
// to be the start of the next reply.
const (
	maxLineLen = 4096
	// MaxObjectSize bounds a single fetched object (defense against a
	// malicious repository streaming forever).
	MaxObjectSize = 8 << 20
	// MaxListEntries bounds a module listing.
	MaxListEntries = 1 << 20
)

// URI identifies a module on an rsynclite server, e.g.
// "rsynclite://127.0.0.1:8873/sprint".
type URI struct {
	// Host is the "host:port" address of the server.
	Host string
	// Module is the publication point name.
	Module string
}

// ParseURI parses "rsynclite://host:port/module[/object]". The optional
// trailing object name is returned separately.
func ParseURI(s string) (URI, string, error) {
	const scheme = "rsynclite://"
	if !strings.HasPrefix(s, scheme) {
		return URI{}, "", fmt.Errorf("repo: URI %q lacks %s scheme", s, scheme)
	}
	rest := strings.TrimSuffix(s[len(scheme):], "/")
	parts := strings.SplitN(rest, "/", 3)
	if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
		return URI{}, "", fmt.Errorf("repo: URI %q needs host/module", s)
	}
	uri := URI{Host: parts[0], Module: parts[1]}
	if len(parts) == 3 {
		return uri, parts[2], nil
	}
	return uri, "", nil
}

// String renders the URI.
func (u URI) String() string {
	return "rsynclite://" + u.Host + "/" + u.Module
}

// ObjectURI renders the URI of an object within the module.
func (u URI) ObjectURI(name string) string {
	return u.String() + "/" + name
}

// readLine reads one LF-terminated line, enforcing the length cap while
// reading. The cap must be applied incrementally: ReadString would buffer an
// entire newline-free stream before a post-hoc length check could reject it,
// handing a malicious server an unbounded-memory primitive.
func readLine(r *bufio.Reader) (string, error) {
	line, err := readLineBytes(r)
	return string(line), err
}

// readLineBytes is readLine without the string copy: the returned line
// (newline stripped) may alias r's buffer and is valid only until the next
// read from r.
func readLineBytes(r *bufio.Reader) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(buf)+len(chunk) > maxLineLen {
			return nil, fmt.Errorf("repo: protocol line too long (> %d bytes)", maxLineLen)
		}
		if err == nil {
			if buf == nil {
				return chunk[:len(chunk)-1], nil
			}
			buf = append(buf, chunk...)
			return buf[:len(buf)-1], nil
		}
		if err == bufio.ErrBufferFull {
			buf = append(buf, chunk...)
			continue
		}
		return nil, err
	}
}

// writeLine writes one LF-terminated line.
func writeLine(w io.Writer, format string, args ...any) error {
	_, err := fmt.Fprintf(w, format+"\n", args...)
	return err
}

// parseOKCount parses an "OK <n>" header with a bound. Its errors are
// permanent: the server completed the exchange, retrying cannot change the
// answer. Only an ERR line leaves the connection usable; any other reply is
// malformed, and a body may follow it that the client cannot skip.
func parseOKCount(line string, bound int) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 || fields[0] != "OK" {
		if len(fields) > 0 && fields[0] == "ERR" {
			return 0, permanent(fmt.Errorf("repo: server error: %s", strings.TrimPrefix(line, "ERR ")))
		}
		return 0, malformed(fmt.Errorf("repo: malformed response %q", line))
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 || n > bound {
		return 0, malformed(fmt.Errorf("repo: count %q out of range", fields[1]))
	}
	return n, nil
}

// validName rejects names that could escape the module namespace or break
// the line protocol.
func validName(name string) bool {
	if name == "" || len(name) > 512 {
		return false
	}
	for _, r := range name {
		if r <= ' ' || r == 0x7F || r == '/' || r == '\\' {
			return false
		}
	}
	return name != "." && name != ".."
}
