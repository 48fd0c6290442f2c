package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
	// Conditional selects validator-based polling: unchanged content
	// costs only a probe. Legacy-RSS-era clients fetch unconditionally;
	// Corona also fetches full content by default since it needs the
	// document to diff, matching the paper's load accounting.
	Conditional bool
}

// Fetch implements Fetcher.
func (f *OriginFetcher) Fetch(url string, haveVersion uint64) (webserver.FetchResult, error) {
	if f.Conditional {
		return f.Origin.FetchConditional(url, f.Clock.Now(), haveVersion)
	}
	return f.Origin.Fetch(url, f.Clock.Now())
}

// originIdleConnsPerHost is how many idle connections an HTTPFetcher
// keeps to one origin host. A node polls each of its channels once per
// interval at a random phase, so the polls in flight to one host at once
// stay in the tens even for hundreds of channels; net/http's default of
// 2 would close and redial for nearly every overlapping poll.
const originIdleConnsPerHost = 64

// maxBodyBytes caps a fetched document. A longer 200 body is a fetch
// error, never a truncated version.
const maxBodyBytes = 16 << 20

// maxDrainBytes bounds how much of a failed response's body is read
// before closing it, so polls of a failing channel keep their connection
// without reading an arbitrarily long error page.
const maxDrainBytes = 64 << 10

// errBodyTooLarge reports a 200 body longer than maxBodyBytes.
var errBodyTooLarge = fmt.Errorf("core: body exceeds %d bytes", maxBodyBytes)

// HTTPFetcher polls real HTTP origins, using ETag validators when the
// server provides them. It is the live-deployment Fetcher. Each fetcher
// owns its connection pool; construct it with NewHTTPFetcher.
type HTTPFetcher struct {
	client *http.Client
	closed atomic.Bool

	mu    sync.Mutex
	sizes map[string]int // length of each URL's last 200 body
}

// NewHTTPFetcher returns a fetcher for a node polling every
// pollInterval. A request gives up after one interval: by then the
// channel's next poll is due, so a black-holed origin holds at most about
// one request per channel instead of one more every interval.
func NewHTTPFetcher(pollInterval time.Duration) *HTTPFetcher {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = originIdleConnsPerHost
	return &HTTPFetcher{
		client: &http.Client{Transport: tr, Timeout: pollInterval},
		sizes:  make(map[string]int),
	}
}

// Close drops the fetcher's idle origin connections. A poll still in
// flight closes its own connection once it finishes.
func (f *HTTPFetcher) Close() {
	f.closed.Store(true)
	f.client.CloseIdleConnections()
}

// Fetch implements Fetcher. The returned version is the server's ETag when
// numeric, else a content-hash-derived counter is unavailable and the
// caller must operate in content mode.
func (f *HTTPFetcher) Fetch(url string, haveVersion uint64) (webserver.FetchResult, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return webserver.FetchResult{}, fmt.Errorf("core: building request: %w", err)
	}
	if haveVersion != 0 {
		req.Header.Set("If-None-Match", strconv.FormatUint(haveVersion, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return webserver.FetchResult{}, fmt.Errorf("core: polling %s: %w", url, err)
	}
	defer func() {
		resp.Body.Close()
		if f.closed.Load() {
			f.client.CloseIdleConnections()
		}
	}()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return webserver.FetchResult{Version: haveVersion, Modified: false, Bytes: 300}, nil
	case http.StatusOK:
		if resp.ContentLength > maxBodyBytes {
			return webserver.FetchResult{}, fmt.Errorf("core: reading %s: %w", url, errBodyTooLarge)
		}
		body, err := readBody(resp.Body, f.sizeHint(url, resp.ContentLength))
		if err != nil {
			return webserver.FetchResult{}, fmt.Errorf("core: reading %s: %w", url, err)
		}
		f.mu.Lock()
		f.sizes[url] = len(body)
		f.mu.Unlock()
		version := haveVersion + 1
		if etag := resp.Header.Get("ETag"); etag != "" {
			if v, err := strconv.ParseUint(etag, 10, 64); err == nil {
				version = v
			}
		}
		return webserver.FetchResult{Version: version, Modified: true, Bytes: len(body), Body: body}, nil
	default:
		// Drain so the connection is reused; a failed drain only costs it.
		io.CopyN(io.Discard, resp.Body, maxDrainBytes)
		return webserver.FetchResult{}, fmt.Errorf("core: polling %s: status %d", url, resp.StatusCode)
	}
}

// sizeHint is the length to allocate for url's body: the declared
// Content-Length, else the length of the URL's last body, which a feed
// rarely outgrows between versions.
func (f *HTTPFetcher) sizeHint(url string, contentLength int64) int {
	if contentLength >= 0 {
		return int(contentLength)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sizes[url]
}

// readBody reads r to its end into one allocation of sizeHint bytes plus
// room to see EOF, growing only when the body outruns the hint. A body
// longer than maxBodyBytes is errBodyTooLarge.
func readBody(r io.Reader, sizeHint int) ([]byte, error) {
	buf := make([]byte, 0, sizeHint+bytes.MinRead)
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
