package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is a minimal keep-alive HTTP/1.1 client over one TCP
// connection. It exists so the load generator spends as little of the
// shared CPUs as possible per request (net/http's client costs several
// times more), leaving them to the daemon under test. Not safe for
// concurrent use: each generator goroutine owns one.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	body []byte // reused response body; valid until the next do
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 4<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one request with an empty body and reads the response. The
// returned body aliases c.body. Any error leaves the connection
// unusable; the caller redials.
func (c *conn) do(method, target string) (int, []byte, error) {
	c.w.WriteString(method)
	c.w.WriteByte(' ')
	c.w.WriteString(target)
	c.w.WriteString(" HTTP/1.1\r\nHost: bench\r\n")
	if method == "POST" {
		c.w.WriteString("Content-Length: 0\r\n")
	}
	c.w.WriteString("\r\n")
	if err := c.w.Flush(); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			sz, err := c.r.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimRight(sz, "\r\n")), 16, 32)
			if err != nil || n < 0 {
				return 0, nil, fmt.Errorf("bad chunk size %q", sz)
			}
			if n == 0 {
				if _, err := c.r.ReadSlice('\n'); err != nil {
					return 0, nil, err
				}
				break
			}
			if err := c.read(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err := c.r.Discard(2); err != nil {
				return 0, nil, err
			}
		}
	case length >= 0:
		if err := c.read(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response without length")
	}
	return code, c.body, nil
}

// read appends exactly n body bytes to c.body.
func (c *conn) read(n int) error {
	off := len(c.body)
	if cap(c.body)-off < n {
		c.body = append(c.body[:off:off], make([]byte, n)...)
	} else {
		c.body = c.body[:off+n]
	}
	_, err := io.ReadFull(c.r, c.body[off:])
	return err
}
