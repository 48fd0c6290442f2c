package core

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"corona/internal/clock"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// readHeadSeeds are whole responses, interim heads and bodies included:
// the cases the fetcher's end-to-end tests serve through net/http's
// server (a 103 before a 200, gzip, a drained chunked 404, HTTP/1.0
// without keep-alive, Connection: close, redirects) plus the corners of
// the head grammar.
func readHeadSeeds(tb testing.TB) []string {
	doc := strings.Repeat("<item>compressible news</item>\n", 20)
	packed := string(gzipped(tb, []byte(doc)))
	return []string{
		"HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n" +
			"HTTP/1.1 200 OK\r\nEtag: 8\r\nContent-Length: 18\r\n\r\n<rss>hinted</rss>\n",
		"HTTP/1.1 200 OK\r\nETag: 12\r\nContent-Encoding: gzip\r\nContent-Length: " + strconv.Itoa(len(packed)) + "\r\n\r\n" + packed,
		"HTTP/1.1 200 OK\r\nContent-Encoding: GZip\r\nTransfer-Encoding: chunked\r\n\r\n" +
			strconv.FormatInt(int64(len(packed)), 16) + "\r\n" + packed + "\r\n0\r\n\r\n",
		"HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\nX-Trailer: 1\r\n\r\n",
		"HTTP/1.0 200 OK\r\nETag: 3\r\n\r\n<rss>v3</rss>\n",
		"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nConnection: upgrade, CLOSE\r\nETag: 7\r\n\r\nto the close",
		"HTTP/1.1 301 Moved Permanently\r\nLocation: /moved\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 302 Found\r\nLocation: http://other.example/feed.xml\r\nContent-Type: text/html\r\nContent-Length: 9\r\n\r\n<a>x</a>\n",
		"HTTP/1.1 304 Not Modified\r\nETag: 18446744073709551615\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nETag: 18446744073709551616\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\nETag:\r\n 5\r\nContent-Length: 2\r\n 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nETag: 5\r\n \r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200\nEtag : 4\nX-Odd\tName: 1\n\n",
		"HTTP/0.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 +20 odd\r\nContent-Length: 0\r\n\r\n",
	}
}

// FuzzReadHead runs readHead against net/http's ReadResponse: on every
// input ReadResponse accepts, readHead must accept it too and read the
// same status, ETag (a 200's opaque one too), body framing, Close,
// Content-Encoding and redirect Location, and reading the body through openBody must give the bytes
// net/http gives. Interim heads are skipped as exchange skips them.
// readHead must never panic.
func FuzzReadHead(f *testing.F) {
	for _, s := range readHeadSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		oc := &originConn{br: bufio.NewReader(bytes.NewReader(data))}
		var h respHead
		err := oc.readHead(&h)
		for i := 0; err == nil && h.status < 200 && h.status != statusSwitchingProtocols && i < 5; i++ {
			err = oc.readHead(&h)
		}
		gr := bufio.NewReader(bytes.NewReader(data))
		resp, goErr := http.ReadResponse(gr, nil)
		for i := 0; goErr == nil && resp.StatusCode < 200 && resp.StatusCode != http.StatusSwitchingProtocols && i < 5; i++ {
			resp, goErr = http.ReadResponse(gr, nil)
		}
		if goErr != nil || errors.Is(err, errHeadTooLarge) {
			return
		}
		if err != nil {
			t.Fatalf("net/http reads %q, readHead refuses it: %v", data, err)
		}
		etag := resp.Header.Get("ETag")
		v, perr := strconv.ParseUint(etag, 10, 64)
		noBody := resp.StatusCode/100 == 1 || resp.StatusCode == 204 || resp.StatusCode == 304
		want := respHead{
			status: resp.StatusCode,
			etagOK: etag != "" && perr == nil,
			length: resp.ContentLength,
			// net/http names a bodiless chunked response chunked too.
			chunked: len(resp.TransferEncoding) > 0 && !noBody,
			close:   resp.Close,
			gzip:    strings.EqualFold(resp.Header.Get("Content-Encoding"), "gzip"),
		}
		if want.etagOK {
			want.etag = v
		} else if want.status == statusOK {
			want.opaqueETag = etag
		}
		if isRedirect(want.status) {
			want.location = resp.Header.Get("Location")
		}
		if h != want {
			t.Fatalf("readHead of %q = %+v, net/http reads %+v", data, h, want)
		}
		goBody, goErr := io.ReadAll(resp.Body)
		body, err := io.ReadAll(oc.openBody(&h))
		if goErr == nil && (err != nil || !bytes.Equal(body, goBody)) {
			t.Fatalf("body of %q: %q, %v; net/http reads %q", data, body, err, goBody)
		}
	})
}

// TestHTTPFetchCapsResponseHead pins the head cap: an origin that
// answers with header lines that never end makes the poll fail once
// maxHeadBytes have arrived, long before its deadline, and the
// connection is closed, not pooled.
func TestHTTPFetchCapsResponseHead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan int64, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- 0
			return
		}
		defer c.Close()
		w := bufio.NewWriter(c)
		n, _ := w.WriteString("HTTP/1.1 200 OK\r\n")
		sent := int64(n)
		pad := "X-Pad: " + strings.Repeat("x", 100) + "\r\n"
		for sent < 1<<30 {
			if n, err = w.WriteString(pad); err != nil {
				break
			}
			sent += int64(n)
		}
		served <- sent
	}()

	const timeout = 30 * time.Second
	f := NewHTTPFetcher(timeout)
	defer f.Close()
	start := time.Now()
	_, err = f.Fetch("http://"+ln.Addr().String()+"/feed.xml", 0, 0)
	if !errors.Is(err, errHeadTooLarge) {
		t.Fatalf("Fetch from a streaming head = %v, want errHeadTooLarge", err)
	}
	if took := time.Since(start); took > timeout/3 {
		t.Fatalf("the capped poll took %v", took)
	}
	f.mu.Lock()
	pooled := 0
	for _, conns := range f.idle {
		pooled += len(conns)
	}
	f.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d connections pooled after an oversized head", pooled)
	}
	select {
	case sent := <-served:
		if sent >= 1<<30 {
			t.Fatal("the origin wrote 1 GiB of head without the poller closing the connection")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the connection stayed open after the capped poll")
	}
}

// cannedOrigin serves each request on a connection with one fixed
// response. It reads and writes through buffers made once per
// connection, so a request costs the test process no allocation of its
// own: what testing.AllocsPerRun sees is the poller's work.
func cannedOrigin(t testing.TB, response string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf, resp := make([]byte, 4096), []byte(response)
				var last uint32 // the last four bytes read
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					for _, b := range buf[:n] {
						if last = last<<8 | uint32(b); last == '\r'<<24|'\n'<<16|'\r'<<8|'\n' {
							if _, err := c.Write(resp); err != nil {
								return
							}
						}
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestPollOverLoopbackAllocatesNothing pins the steady state of a
// polling node on the real clock: a poll answered 304 over a pooled
// loopback connection, its head parsed and its timer re-armed, allocates
// nothing.
func TestPollOverLoopbackAllocatesNothing(t *testing.T) {
	origin := cannedOrigin(t, "HTTP/1.1 304 Not Modified\r\nETag: 1\r\nDate: Mon, 01 May 2006 00:00:00 GMT\r\n\r\n")
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	var clk clock.Real
	overlay := pastry.NewNode(pastry.Addr{ID: ids.HashString("loopback-node"), Endpoint: "sim://0"}, nil, clk)
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 1
	cfg.PollInterval = time.Hour // the test drives every poll
	n := NewNode(cfg, overlay, clk, f, nil, nil)
	defer n.Stop()

	n.mu.Lock()
	ch := n.getChannel(origin + "/feed.xml")
	ch.lastVersion = 1
	n.startPollingLocked(ch)
	n.mu.Unlock()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() { n.pollChannel(ch) })
	if st := n.Stats(); st.PollsIssued != runs+1 || st.PollErrors != 0 || st.UpdatesDetected != 0 {
		t.Fatalf("stats after %d polls: %+v, want every poll a 304", runs+1, st)
	}
	if f.Dials() != 1 {
		t.Fatalf("%d polls dialed %d connections, want 1", runs+1, f.Dials())
	}
	if allocs != 0 {
		t.Fatalf("a 304 poll over loopback allocates %.2f times, want 0", allocs)
	}
}

// TestHTTPFetchChunkedTrailersKeepAlive polls a chunked 200 whose body
// ends in a trailer section: the trailer is read with the body, so the
// connection goes back to the pool and carries the next poll.
func TestHTTPFetchChunkedTrailersKeepAlive(t *testing.T) {
	origin := cannedOrigin(t, "HTTP/1.1 200 OK\r\nETag: 5\r\nTransfer-Encoding: chunked\r\nTrailer: X-Checksum\r\n\r\n"+
		"6\r\n<rss>v\r\n8\r\n5</rss>\n\r\n0\r\nX-Checksum: 42\r\n\r\n")
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	for i := 0; i < 3; i++ {
		res, err := f.Fetch(origin+"/feed.xml", 0, 0)
		if err != nil || res.Version != 5 || string(res.Body) != "<rss>v5</rss>\n" {
			t.Fatalf("poll %d = %+v, %v", i, res, err)
		}
	}
	if f.Dials() != 1 {
		t.Fatalf("3 chunked polls dialed %d connections, want 1", f.Dials())
	}
}
