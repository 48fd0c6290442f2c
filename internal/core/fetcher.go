package core

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/clock"
	"corona/internal/webserver"
)

// OriginFetcher adapts a simulated webserver.Origin to the Fetcher
// interface under a (virtual or real) clock.
type OriginFetcher struct {
	// Origin hosts the channels.
	Origin *webserver.Origin
	// Clock supplies poll timestamps.
	Clock clock.Clock
}

// Fetch implements Fetcher. It fetches full content unconditionally:
// Corona needs the document to diff, and the paper's load accounting
// counts every poll as a full fetch, as legacy RSS clients make them.
func (f *OriginFetcher) Fetch(url string, _, _ uint64) (webserver.FetchResult, error) {
	return f.Origin.Fetch(url, f.Clock.Now())
}

// ReleaseBody implements Fetcher. The origin renders a fresh body per
// fetch, so there is nothing to reuse.
func (f *OriginFetcher) ReleaseBody([]byte) {}

// originIdleConnsPerHost is how many idle connections an HTTPFetcher
// keeps to one origin host. A node polls each of its channels once per
// interval at the channel's slot, whose offset follows the channel's
// hash and so spreads a node's channels over the interval like a random
// phase would: the polls in flight to one host at once stay in the tens
// even for hundreds of channels; a smaller pool would close and redial
// for nearly every overlapping poll.
const originIdleConnsPerHost = 64

// maxBodyBytes caps a fetched document. A longer 200 body is a fetch
// error, never a truncated version.
const maxBodyBytes = 16 << 20

// maxDrainBytes bounds how much of a failed response's body is read
// before closing it, so polls of a failing channel keep their connection
// without reading an arbitrarily long error page.
const maxDrainBytes = 64 << 10

// maxKeptBodies and maxKeptBodyBytes bound the body buffers an
// HTTPFetcher keeps for reuse: a few buffers (polls overlap rarely), none
// larger than 1 MiB, so one huge feed cannot pin its buffer.
const (
	maxKeptBodies    = 8
	maxKeptBodyBytes = 1 << 20
)

// maxRedirects is how many redirect responses a poll takes before it
// gives up, as net/http's client does.
const maxRedirects = 10

// errBodyTooLarge reports a 200 body longer than maxBodyBytes.
var errBodyTooLarge = fmt.Errorf("core: body exceeds %d bytes", maxBodyBytes)

// HTTPFetcher polls real HTTP origins, using ETag validators when the
// server provides them. It is the live-deployment Fetcher. A decimal
// ETag is the version, and a poll sends the version of the content it
// holds as If-None-Match, so a node whose content trails the version it
// knows of gets the body back. A 200 without one is given a version made
// up as the version the poll knows of plus one, and from then on the
// URL's polls revalidate against that version instead: any other ETag (a
// quoted one, say) is kept with the version its 200 was given, and sent
// back as If-None-Match while the poll holds that version, so unchanged
// content is answered 304.
//
// It speaks HTTP/1.1 over plain TCP or TLS (http:// and https:// URLs),
// offers gzip and decodes it, and follows up to 10 redirects. A poll,
// redirects included, gives up one poll interval after it starts. Proxy
// environment variables are not consulted: polls go straight to the
// origin.
//
// Each fetcher owns its connection pool: up to originIdleConnsPerHost
// idle keep-alive connections per origin, each with its own buffered
// reader and writer. A poll takes one, writes its GET and parses the
// reply on the calling goroutine; no goroutine, context or timer lives
// per connection or per request. Construct it with NewHTTPFetcher.
//
// The reply is not read through net/http: readHead parses the status
// line and the few header fields a poll uses (ETag, Content-Length,
// Transfer-Encoding, Connection, Content-Encoding, Location) in place
// from the connection's reader, under net/http's rules, and a body is
// read through a reader the connection embeds. A 304 poll over a pooled
// connection allocates nothing. A response head longer than maxHeadBytes
// is a poll error.
//
// A 200 body is read into a buffer the fetcher reuses: the node hands it
// back through ReleaseBody once the difference engine has consumed it,
// and a later poll reads into it.
type HTTPFetcher struct {
	timeout time.Duration
	rootCAs *x509.CertPool // TLS trust roots; nil means the host's
	dials   atomic.Uint64

	mu     sync.Mutex
	closed bool
	idle   map[string][]*originConn // by originTarget.key, most recent last
	polled map[string]*polledURL    // by URL
	bodies [][]byte                 // released body buffers, for readBody
}

// polledURL is what the fetcher keeps per polled URL. Its fields after
// target are guarded by HTTPFetcher.mu.
type polledURL struct {
	target *originTarget
	size   int // length of the URL's last 200 body
	// etag is the last 200's ETag when it was not a decimal version, and
	// etagVersion the version that 200 was given; etag is empty
	// otherwise.
	etag        string
	etagVersion uint64
	// madeUp reports that the last 200 carried no decimal ETag, so its
	// version was made up: a poll then revalidates against the version
	// it knows of, not the content's, which would name no version this
	// fetcher gave.
	madeUp bool
}

// originTarget is one URL's request, resolved once.
type originTarget struct {
	url        *url.URL
	key        string // scheme://host:port; connections pool per key
	addr       string // host:port to dial
	tls        bool
	serverName string
	head       string // request line and fixed headers, each line CRLF-ended
}

// originConn is one pooled connection to an origin.
type originConn struct {
	conn net.Conn
	key  string
	br   *bufio.Reader
	bw   *bufio.Writer
	line []byte     // the head line being parsed, reused across polls
	body bodyReader // the body of the response being read
}

// NewHTTPFetcher returns a fetcher for a node polling every
// pollInterval. A request gives up after one interval: by then the
// channel's next poll is due, so a black-holed origin holds at most about
// one request per channel instead of one more every interval.
func NewHTTPFetcher(pollInterval time.Duration) *HTTPFetcher {
	return &HTTPFetcher{
		timeout: pollInterval,
		idle:    make(map[string][]*originConn),
		polled:  make(map[string]*polledURL),
	}
}

// Close drops the fetcher's idle origin connections. A poll still in
// flight closes its own connection once it finishes.
func (f *HTTPFetcher) Close() {
	f.mu.Lock()
	idle := f.idle
	f.idle, f.closed = nil, true
	f.mu.Unlock()
	for _, conns := range idle {
		for _, oc := range conns {
			oc.conn.Close()
		}
	}
}

// Dials reports how many connections the fetcher has dialed to origins.
func (f *HTTPFetcher) Dials() uint64 { return f.dials.Load() }

// Fetch implements Fetcher. The returned version is the server's ETag when
// numeric, else haveVersion+1; either way the result carries the body,
// which the node diffs against the content it holds.
func (f *HTTPFetcher) Fetch(rawURL string, haveVersion, contentVersion uint64) (webserver.FetchResult, error) {
	p, validator, etag, err := f.lookup(rawURL, haveVersion, contentVersion)
	if err != nil {
		return webserver.FetchResult{}, fmt.Errorf("core: building request: %w", err)
	}
	//lint:allow wallclock a socket deadline is wall time; HTTPFetcher only ever talks to real origins
	deadline := time.Now().Add(f.timeout)
	t := p.target
	var h respHead
	for redirects := 0; ; {
		oc, err := f.roundTrip(t, validator, etag, deadline, &h)
		if err != nil {
			return webserver.FetchResult{}, fmt.Errorf("core: polling %s: %w", rawURL, err)
		}
		if h.location == "" {
			return f.finish(p, oc, &h, rawURL, haveVersion, validator)
		}
		f.release(oc, &h, oc.drain(&h))
		if redirects++; redirects >= maxRedirects {
			return webserver.FetchResult{}, fmt.Errorf("core: polling %s: stopped after %d redirects", rawURL, maxRedirects)
		}
		next, err := t.url.Parse(h.location)
		if err == nil {
			t, err = newOriginTarget(next)
		}
		if err != nil {
			return webserver.FetchResult{}, fmt.Errorf("core: polling %s: redirect to %q: %w", rawURL, h.location, err)
		}
	}
}

// finish turns a final response into a fetch result and hands its
// connection back. validator is the version the poll revalidated
// against.
func (f *HTTPFetcher) finish(p *polledURL, oc *originConn, h *respHead, rawURL string, haveVersion, validator uint64) (webserver.FetchResult, error) {
	switch h.status {
	case statusNotModified:
		f.release(oc, h, true)
		return webserver.FetchResult{Version: validator, Modified: false, Bytes: 300}, nil
	case statusOK:
		r, contentLength := oc.openBody(h), h.length
		if h.gzip {
			zr, err := gzip.NewReader(r)
			if err != nil {
				oc.conn.Close()
				return webserver.FetchResult{}, fmt.Errorf("core: reading %s: %w", rawURL, err)
			}
			r, contentLength = zr, -1 // the cap and the size hint count decoded bytes
		}
		if contentLength > maxBodyBytes {
			oc.conn.Close()
			return webserver.FetchResult{}, fmt.Errorf("core: reading %s: %w", rawURL, errBodyTooLarge)
		}
		sizeHint := int(contentLength)
		if contentLength < 0 {
			f.mu.Lock()
			sizeHint = p.size
			f.mu.Unlock()
		}
		body, err := readBody(r, f.takeBody(), sizeHint)
		if err != nil {
			oc.conn.Close()
			return webserver.FetchResult{}, fmt.Errorf("core: reading %s: %w", rawURL, err)
		}
		f.release(oc, h, true)
		version := haveVersion + 1
		if h.etagOK {
			version = h.etag
		}
		f.mu.Lock()
		p.size = len(body)
		p.etag, p.etagVersion = h.opaqueETag, version
		p.madeUp = !h.etagOK
		f.mu.Unlock()
		return webserver.FetchResult{Version: version, Modified: true, Bytes: len(body), Body: body}, nil
	default:
		f.release(oc, h, oc.drain(h))
		return webserver.FetchResult{}, fmt.Errorf("core: polling %s: status %d", rawURL, h.status)
	}
}

// ReleaseBody implements Fetcher: a later poll reads into body, unless
// it is larger than maxKeptBodyBytes or maxKeptBodies are kept already.
func (f *HTTPFetcher) ReleaseBody(body []byte) {
	if cap(body) == 0 || cap(body) > maxKeptBodyBytes {
		return
	}
	f.mu.Lock()
	if len(f.bodies) < maxKeptBodies {
		f.bodies = append(f.bodies, body[:0])
	}
	f.mu.Unlock()
}

// takeBody returns the most recently released body buffer, or nil.
func (f *HTTPFetcher) takeBody() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.bodies)
	if n == 0 {
		return nil
	}
	buf := f.bodies[n-1]
	f.bodies[n-1] = nil
	f.bodies = f.bodies[:n-1]
	return buf
}

// lookup returns the fetcher's record of rawURL, resolving its request
// on the first poll, and what the poll revalidates against: the version
// of the content it holds, or, once the URL's versions are made up,
// haveVersion and the opaque ETag it stands for, if any.
func (f *HTTPFetcher) lookup(rawURL string, haveVersion, contentVersion uint64) (p *polledURL, validator uint64, etag string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p = f.polled[rawURL]; p == nil {
		u, err := url.Parse(rawURL)
		if err != nil {
			return nil, 0, "", err
		}
		t, err := newOriginTarget(u)
		if err != nil {
			return nil, 0, "", err
		}
		p = &polledURL{target: t}
		f.polled[rawURL] = p
	}
	if !p.madeUp {
		return p, contentVersion, "", nil
	}
	if p.etagVersion == haveVersion {
		etag = p.etag
	}
	return p, haveVersion, etag, nil
}

// newOriginTarget resolves the request for u: where to connect and the
// request head every poll of u writes.
func newOriginTarget(u *url.URL) (*originTarget, error) {
	var port string
	switch u.Scheme {
	case "http":
		port = "80"
	case "https":
		port = "443"
	default:
		return nil, fmt.Errorf("unsupported protocol scheme %q", u.Scheme)
	}
	host := strings.TrimSuffix(u.Host, ":")
	if host == "" {
		return nil, errors.New("no host in URL")
	}
	for i := 0; i < len(host); i++ {
		if host[i] <= ' ' || host[i] >= 0x7f {
			return nil, fmt.Errorf("invalid host %q", host)
		}
	}
	if p := u.Port(); p != "" {
		port = p
	}
	addr := net.JoinHostPort(u.Hostname(), port)
	// The URL parser leaves spaces in a raw query; the request line may
	// not carry them.
	head := "GET " + strings.ReplaceAll(u.RequestURI(), " ", "%20") + " HTTP/1.1\r\n" +
		"Host: " + host + "\r\n" +
		"User-Agent: corona\r\n" +
		"Accept-Encoding: gzip\r\n"
	if u.User != nil {
		password, _ := u.User.Password()
		head += "Authorization: Basic " + base64.StdEncoding.EncodeToString([]byte(u.User.Username()+":"+password)) + "\r\n"
	}
	return &originTarget{
		url:        u,
		key:        u.Scheme + "://" + addr,
		addr:       addr,
		tls:        u.Scheme == "https",
		serverName: u.Hostname(),
		head:       head,
	}, nil
}

// roundTrip sends one GET for t and reads the response head into h. The
// GET's If-None-Match is etag when set, else validator when non-zero. A
// pooled connection the origin closed while it sat idle fails before any
// byte of a response arrives; the GET is idempotent, so it is sent once
// more on a fresh connection.
func (f *HTTPFetcher) roundTrip(t *originTarget, validator uint64, etag string, deadline time.Time, h *respHead) (*originConn, error) {
	oc, reused, err := f.take(t, deadline)
	if err != nil {
		return nil, err
	}
	answered, err := oc.exchange(t, validator, etag, h)
	if err != nil && reused && !answered && !errors.Is(err, os.ErrDeadlineExceeded) {
		oc.conn.Close()
		if oc, err = f.dial(t, deadline); err != nil {
			return nil, err
		}
		_, err = oc.exchange(t, validator, etag, h)
	}
	if err != nil {
		oc.conn.Close()
		return nil, err
	}
	return oc, nil
}

// exchange writes the GET and parses the response head into h. answered
// reports whether any byte of a response arrived.
func (oc *originConn) exchange(t *originTarget, validator uint64, etag string, h *respHead) (answered bool, err error) {
	oc.bw.WriteString(t.head)
	switch {
	case etag != "":
		oc.bw.WriteString("If-None-Match: ")
		oc.bw.WriteString(etag)
		oc.bw.WriteString("\r\n")
	case validator != 0:
		oc.bw.WriteString("If-None-Match: ")
		oc.bw.Write(strconv.AppendUint(oc.bw.AvailableBuffer(), validator, 10))
		oc.bw.WriteString("\r\n")
	}
	oc.bw.WriteString("\r\n")
	if err := oc.bw.Flush(); err != nil {
		return false, err
	}
	if _, err := oc.br.Peek(1); err != nil {
		return false, err
	}
	err = oc.readHead(h)
	// Skip interim responses (103 Early Hints, a stray 100 Continue), as
	// net/http's client does.
	for i := 0; err == nil && h.status < 200 && h.status != statusSwitchingProtocols && i < 5; i++ {
		err = oc.readHead(h)
	}
	return true, err
}

// take returns a connection to t's origin with its deadline set: the
// most recently pooled idle one, else a new one. reused reports a pooled
// connection.
func (f *HTTPFetcher) take(t *originTarget, deadline time.Time) (oc *originConn, reused bool, err error) {
	f.mu.Lock()
	if conns := f.idle[t.key]; len(conns) > 0 {
		oc = conns[len(conns)-1]
		conns[len(conns)-1] = nil
		f.idle[t.key] = conns[:len(conns)-1]
	}
	f.mu.Unlock()
	if oc != nil {
		if err := oc.conn.SetDeadline(deadline); err == nil {
			return oc, true, nil
		}
		oc.conn.Close()
	}
	oc, err = f.dial(t, deadline)
	return oc, false, err
}

// dial connects to t's origin, shaking hands for https, all within
// deadline.
func (f *HTTPFetcher) dial(t *originTarget, deadline time.Time) (*originConn, error) {
	f.dials.Add(1)
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", t.addr)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	if t.tls {
		tc := tls.Client(conn, &tls.Config{ServerName: t.serverName, RootCAs: f.rootCAs, NextProtos: []string{"http/1.1"}})
		if err := tc.Handshake(); err != nil {
			conn.Close()
			return nil, err
		}
		conn = tc
	}
	return &originConn{conn: conn, key: t.key, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// release pools oc when its response was read to the end (consumed) and
// leaves the connection fit for another request; otherwise, or once the
// fetcher is closed or the origin's pool is full, it closes oc.
func (f *HTTPFetcher) release(oc *originConn, h *respHead, consumed bool) {
	if consumed && !h.close && h.status >= 200 && oc.br.Buffered() == 0 {
		f.mu.Lock()
		if !f.closed && len(f.idle[oc.key]) < originIdleConnsPerHost {
			f.idle[oc.key] = append(f.idle[oc.key], oc)
			oc = nil
		}
		f.mu.Unlock()
	}
	if oc != nil {
		oc.conn.Close()
	}
}

// drain reads up to maxDrainBytes of the body of h, which is not wanted,
// and reports whether that reached its end, leaving the connection
// reusable.
func (oc *originConn) drain(h *respHead) bool {
	if h.close {
		return false
	}
	_, err := io.CopyN(io.Discard, oc.openBody(h), maxDrainBytes+1)
	return err == io.EOF
}

// The statuses a poll tells apart.
const (
	statusSwitchingProtocols = 101
	statusOK                 = 200
	statusNotModified        = 304
)

// isRedirect reports the statuses a poll follows to their Location: 301,
// 302, 303, 307 and 308.
func isRedirect(status int) bool {
	switch status {
	case 301, 302, 303, 307, 308:
		return true
	}
	return false
}

// readBody reads r to its end into buf, first grown (one allocation, if
// buf is too small) to sizeHint bytes plus room to see EOF, and growing
// again only when the body outruns the hint. A body longer than
// maxBodyBytes is errBodyTooLarge.
func readBody(r io.Reader, buf []byte, sizeHint int) ([]byte, error) {
	buf = slices.Grow(buf[:0], sizeHint+bytes.MinRead)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBodyBytes {
			return nil, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
