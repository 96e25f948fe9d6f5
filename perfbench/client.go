package main

// Raw keep-alive HTTP/1.1 client. It follows benchutil.GatewayConn (one
// connection, reused bufio.Reader, caller-rendered request bytes) but
// keeps what GatewayConn throws away: the body and the session cookie,
// because every reply is checked. Request rendering mirrors the routes
// loadgen's request builder sends, so the daemon sees the same bytes.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"

	"w5/internal/gateway"
	"w5/internal/loadgen"
	"w5/internal/workload"
)

// conn is one keep-alive connection. Not safe for concurrent use.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

// reply is one response. body aliases the connection's buffer and is
// valid until the next exchange.
type reply struct {
	status int
	cookie string // w5sess value from Set-Cookie, "" if none
	body   []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

var (
	hdrCLen   = []byte("content-length:")
	hdrChunk  = []byte("transfer-encoding: chunked")
	hdrCookie = []byte("set-cookie: " + gateway.SessionCookie + "=")
)

// exchange writes one rendered request and reads one whole response.
func (c *conn) exchange(req []byte) (reply, error) {
	var r reply
	if _, err := c.c.Write(req); err != nil {
		return r, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return r, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return r, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return r, fmt.Errorf("bad status line %q", bytes.TrimSpace(line))
	}
	clen, chunked := -1, false
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return r, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case foldHasPrefix(line, hdrCLen):
			n, err := strconv.Atoi(string(bytes.TrimSpace(line[len(hdrCLen):])))
			if err != nil {
				return r, fmt.Errorf("bad content-length %q", bytes.TrimSpace(line))
			}
			clen = n
		case foldHasPrefix(line, hdrChunk):
			chunked = true
		case foldHasPrefix(line, hdrCookie):
			v := line[len(hdrCookie):]
			if i := bytes.IndexAny(v, ";\r\n"); i >= 0 {
				v = v[:i]
			}
			r.cookie = string(v)
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		err = c.readChunked()
	case clen >= 0:
		err = c.readN(clen)
	default:
		err = fmt.Errorf("response with no length framing")
	}
	r.body = c.body
	return r, err
}

func (c *conn) readN(n int) error {
	start := len(c.body)
	c.body = slices.Grow(c.body, n)[:start+n]
	_, err := io.ReadFull(c.br, c.body[start:])
	return err
}

func (c *conn) readChunked() error {
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", bytes.TrimSpace(line))
		}
		if size == 0 {
			_, err = c.br.ReadSlice('\n')
			return err
		}
		if err := c.readN(int(size)); err != nil {
			return err
		}
		if _, err := c.br.ReadSlice('\n'); err != nil {
			return err
		}
	}
}

// foldHasPrefix reports whether line begins with the lowercase prefix,
// ASCII case-insensitively.
func foldHasPrefix(line, prefix []byte) bool {
	if len(line) < len(prefix) {
		return false
	}
	for i, p := range prefix {
		ch := line[i]
		if ch >= 'A' && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		if ch != p {
			return false
		}
	}
	return true
}

// marketQueries and photoPayload match loadgen's request builder: every
// query matches a dev-seeded module, and the photo bytes are constant.
var marketQueries = []string{"social", "blog", "photo", "twin", "wvm", "bytecode"}

const photoPayload = "bG9hZGdlbi1waG90by1wYXlsb2Fk"

// auditHead is the probe's audit pull: the viewer's first event only.
const auditHead = "audit-head"

// renderer turns ops into request bytes, reusing one buffer.
type renderer struct {
	host    string
	users   []string
	cookies []string
	buf     []byte
}

// login renders POST /login for user.
func (b *renderer) login(user string) []byte {
	form := "user=" + user + "&password=" + loadgen.SeedPassword
	b.buf = append(b.buf[:0], "POST /login HTTP/1.1\r\nHost: "...)
	b.buf = append(b.buf, b.host...)
	b.buf = append(b.buf, "\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: "...)
	b.buf = strconv.AppendInt(b.buf, int64(len(form)), 10)
	b.buf = append(b.buf, "\r\n\r\n"...)
	b.buf = append(b.buf, form...)
	return b.buf
}

// render renders op. A non-negative id is sent as X-Bench-Op so the
// traced server wrapper can join its span to the client's.
func (b *renderer) render(op workload.Op, id int) []byte {
	owner := b.users[op.Owner]
	switch op.Scenario {
	case workload.ScenarioLogin:
		return b.login(b.users[op.Viewer])
	case workload.ScenarioSocialRead:
		b.buf = append(append(b.buf[:0], "GET /app/social/profile?owner="...), owner...)
	case workload.ScenarioWVMRead:
		b.buf = append(append(b.buf[:0], "GET /app/social-wvm/profile?owner="...), owner...)
	case workload.ScenarioTableQuery:
		b.buf = append(append(b.buf[:0], "GET /app/blog/?owner="...), owner...)
	case workload.ScenarioAuditPull:
		b.buf = append(b.buf[:0], "GET /audit?limit=25"...)
	case auditHead:
		b.buf = append(b.buf[:0], "GET /audit?limit=1"...)
	case workload.ScenarioMarketSearch:
		b.buf = append(append(b.buf[:0], "GET /registry/search?q="...), marketQueries[op.Item%len(marketQueries)]...)
	case workload.ScenarioPhotoWrite:
		b.buf = append(append(b.buf[:0], "POST /app/photoshare/upload?owner="...), b.users[op.Viewer]...)
	default:
		panic("perfbench: unknown scenario " + op.Scenario)
	}
	b.buf = append(b.buf, " HTTP/1.1\r\nHost: "...)
	b.buf = append(b.buf, b.host...)
	b.buf = append(b.buf, "\r\nCookie: "+gateway.SessionCookie+"="...)
	b.buf = append(b.buf, b.cookies[op.Viewer]...)
	if id >= 0 {
		b.buf = append(b.buf, "\r\nX-Bench-Op: "...)
		b.buf = strconv.AppendInt(b.buf, int64(id), 10)
	}
	if op.Scenario != workload.ScenarioPhotoWrite {
		b.buf = append(b.buf, "\r\n\r\n"...)
		return b.buf
	}
	form := "name=" + photoName(op) + "&data=" + photoPayload
	b.buf = append(b.buf, "\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: "...)
	b.buf = strconv.AppendInt(b.buf, int64(len(form)), 10)
	b.buf = append(b.buf, "\r\n\r\n"...)
	b.buf = append(b.buf, form...)
	return b.buf
}

func photoName(op workload.Op) string { return "p" + strconv.Itoa(op.Item) }
