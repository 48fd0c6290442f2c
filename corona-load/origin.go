package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/feed"
	"corona/internal/webserver"
)

// jitterProcess publishes versions at seeded, jittered gaps: each gap is
// drawn uniformly from mean·[1−jitter, 1+jitter], and the first update
// lands at a random phase inside one mean. Strictly periodic updates
// against periodic polls lock one poll phase for a whole run, and
// webserver.PoissonProcess clamps gaps to at least a second, so the
// benchmark carries its own process. Times are drawn up front for the
// whole horizon, which makes the process read-only and safe for
// concurrent use; past the horizon the version stops advancing.
type jitterProcess struct {
	times []time.Time // times[k] publishes version k+1
	mean  time.Duration
}

func newJitterProcess(start time.Time, mean time.Duration, jitter float64, horizon time.Duration, rng *rand.Rand) *jitterProcess {
	p := &jitterProcess{times: []time.Time{start}, mean: mean}
	t := start.Add(time.Duration(rng.Float64() * float64(mean)))
	for end := start.Add(horizon); t.Before(end); {
		p.times = append(p.times, t)
		t = t.Add(time.Duration(float64(mean) * (1 - jitter + 2*jitter*rng.Float64())))
	}
	return p
}

// VersionAt implements webserver.UpdateProcess.
func (p *jitterProcess) VersionAt(t time.Time) uint64 {
	return uint64(sort.Search(len(p.times), func(i int) bool { return p.times[i].After(t) }))
}

// UpdateTime implements webserver.UpdateProcess.
func (p *jitterProcess) UpdateTime(v uint64) time.Time {
	if v == 0 || v > uint64(len(p.times)) {
		return time.Time{}
	}
	return p.times[v-1]
}

// MeanInterval implements webserver.UpdateProcess.
func (p *jitterProcess) MeanInterval() time.Duration { return p.mean }

// published counts versions whose publication falls in [from, to).
func (p *jitterProcess) published(from, to time.Time) int {
	return int(p.VersionAt(to.Add(-1)) - p.VersionAt(from.Add(-1)))
}

// originChan is one hosted feed: its update process, every body the
// origin served (rendered once per version), and the instant each
// version was first answered with a 200.
type originChan struct {
	path string
	proc *jitterProcess

	mu     sync.Mutex
	bodies map[uint64][]byte
	first  map[uint64]time.Time
}

// origin is the benchmark's HTTP content server: webserver.Origin plus a
// feed.Generator per channel behind webserver.HTTPOrigin, wrapped by a
// handler that answers 304s and repeat 200s itself. The wrapper renders
// each version once — the first 200 for a version goes through
// HTTPOrigin, later ones replay its bytes — so generator CPU does not
// scale with poll count, and it stamps the first-200 instant every
// latency is anchored on.
type origin struct {
	inner *webserver.HTTPOrigin
	chans map[string]*originChan // fixed after construction
	trace *tracer

	ok, notModified atomic.Uint64
}

// newOrigin hosts n feeds at /feed/<i>, each with its own seeded content
// generator and update process.
func newOrigin(n int, start time.Time, mean time.Duration, jitter float64, horizon time.Duration, seed int64, tr *tracer) *origin {
	rng := rand.New(rand.NewSource(seed))
	web := webserver.NewOrigin()
	o := &origin{inner: webserver.NewHTTPOrigin(web, time.Now), chans: make(map[string]*originChan, n), trace: tr}
	for i := 0; i < n; i++ {
		path := "/feed/" + strconv.Itoa(i)
		proc := newJitterProcess(start, mean, jitter, horizon, rng)
		web.Host(webserver.ChannelConfig{URL: path, Process: proc, Generator: feed.NewGenerator(path, rng.Int63())})
		o.chans[path] = &originChan{path: path, proc: proc, bodies: make(map[uint64][]byte), first: make(map[uint64]time.Time)}
	}
	return o
}

// ServeHTTP answers one poll. A validator matching the current version
// gets a 304; otherwise the current version's body, rendered on its
// first request through HTTPOrigin.
func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	c, ok := o.chans[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	v := c.proc.VersionAt(start)
	if have, err := strconv.ParseUint(r.Header.Get("If-None-Match"), 10, 64); err == nil && have == v {
		w.Header().Set("ETag", strconv.FormatUint(v, 10))
		w.WriteHeader(http.StatusNotModified)
		o.notModified.Add(1)
		o.trace.span("origin.304", c.path, v, start, time.Now())
		return
	}
	c.mu.Lock()
	body, cached := c.bodies[v]
	if !cached {
		var err error
		if v, body, err = o.render(r); err != nil {
			c.mu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c.bodies[v] = body
	}
	if _, seen := c.first[v]; !seen {
		c.first[v] = time.Now()
	}
	c.mu.Unlock()
	w.Header().Set("ETag", strconv.FormatUint(v, 10))
	w.Header().Set("Content-Type", "application/rss+xml; charset=utf-8")
	w.Write(body)
	o.ok.Add(1)
	o.trace.span("origin.200", c.path, v, start, time.Now())
}

// render fetches the current version unconditionally through HTTPOrigin
// and returns the version its ETag names with the body.
func (o *origin) render(r *http.Request) (uint64, []byte, error) {
	req := r.Clone(r.Context())
	req.Header.Del("If-None-Match")
	rec := &recorder{header: make(http.Header), code: http.StatusOK}
	o.inner.ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		return 0, nil, fmt.Errorf("origin: rendering %s: status %d", r.URL.Path, rec.code)
	}
	v, err := strconv.ParseUint(rec.header.Get("ETag"), 10, 64)
	if err != nil {
		return 0, nil, err
	}
	return v, rec.body.Bytes(), nil
}

// recorder captures one HTTPOrigin response in memory.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// firstServed returns when version v was first answered with a 200.
func (c *originChan) firstServed(v uint64) (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.first[v]
	return t, ok
}

// UpdateTime returns when version v was published.
func (c *originChan) UpdateTime(v uint64) time.Time { return c.proc.UpdateTime(v) }

// body returns the bytes served for version v.
func (c *originChan) body(v uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.bodies[v]
	return b, ok
}

// servedIn lists, ascending, the versions first served in [from, to).
func (c *originChan) servedIn(from, to time.Time) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var vs []uint64
	for v, t := range c.first {
		if !t.Before(from) && t.Before(to) {
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}
