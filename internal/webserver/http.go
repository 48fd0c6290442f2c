package webserver

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// HTTPOrigin exposes an Origin's generator-backed channels over real HTTP,
// for the live deployment path (cmd/corona-feedserver). It supports the
// validators legacy clients use — ETag (the content version) and
// Last-Modified — plus the per-IP rate limiting the paper describes content
// providers imposing as a stop-gap (§1).
type HTTPOrigin struct {
	origin *Origin
	now    func() time.Time

	mu        sync.Mutex
	rateLimit int // max requests per client per minute; 0 = unlimited
	window    time.Time
	counts    map[string]int

	requests uint64
	rejected uint64
}

// NewHTTPOrigin wraps an Origin. The now function supplies time (wall
// clock in production, injectable in tests).
func NewHTTPOrigin(origin *Origin, now func() time.Time) *HTTPOrigin {
	if now == nil {
		now = time.Now
	}
	return &HTTPOrigin{origin: origin, now: now, counts: make(map[string]int)}
}

// SetRateLimit bounds requests per client IP per minute; 0 disables.
func (h *HTTPOrigin) SetRateLimit(perMinute int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rateLimit = perMinute
}

// Requests returns (served, rejected) counters.
func (h *HTTPOrigin) Requests() (uint64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.requests, h.rejected
}

// ServeHTTP implements http.Handler. The channel URL is the request path.
func (h *HTTPOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := h.now()
	if !h.admit(r.RemoteAddr, now) {
		http.Error(w, "429 too many requests (per-IP rate limit)", http.StatusTooManyRequests)
		return
	}
	url := r.URL.Path
	var have uint64
	if etag := r.Header.Get("If-None-Match"); etag != "" {
		if v, err := strconv.ParseUint(etag, 10, 64); err == nil {
			have = v
		}
	}
	res, err := h.origin.FetchConditional(url, now, have)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("ETag", fmt.Sprintf("%d", res.Version))
	w.Header().Set("Content-Type", "application/rss+xml; charset=utf-8")
	if !res.Modified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if res.Body == nil {
		// A channel with no Generator has no body to serve over HTTP.
		http.Error(w, "channel has no content generator", http.StatusUnprocessableEntity)
		return
	}
	w.Write(res.Body)
}

// admit applies the sliding per-minute rate limit, keyed by client IP
// (ignoring the ephemeral port) — exactly the blunt per-IP limiting the
// paper criticizes for breaking users behind shared addresses (§1).
func (h *HTTPOrigin) admit(remote string, now time.Time) bool {
	if host, _, err := net.SplitHostPort(remote); err == nil {
		remote = host
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.requests++
	if h.rateLimit <= 0 {
		return true
	}
	if now.Sub(h.window) >= time.Minute {
		h.window = now
		h.counts = make(map[string]int)
	}
	h.counts[remote]++
	if h.counts[remote] > h.rateLimit {
		h.rejected++
		h.requests--
		return false
	}
	return true
}
