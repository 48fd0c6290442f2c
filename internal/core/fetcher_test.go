package core

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/feed"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// TestHTTPFetchGivesUpAfterPollInterval pins the fetch deadline: a
// request to an origin that accepts the connection and never answers
// fails within about one poll interval, so polls issued once per
// interval — the way pollChannel issues them, rescheduling before it
// fetches — keep a bounded number of goroutines alive instead of one
// more stuck request every interval.
func TestHTTPFetchGivesUpAfterPollInterval(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)

	const interval = 100 * time.Millisecond
	f := NewHTTPFetcher(interval)
	defer f.Close()
	done := make(chan error, 1)
	go func() {
		_, err := f.Fetch(srv.URL, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch from a silent origin succeeded")
		}
	case <-time.After(10 * interval):
		t.Fatalf("fetch from a silent origin still waiting after %v", 10*interval)
	}

	base := runtime.NumGoroutine()
	peak := base
	var wg sync.WaitGroup
	const polls = 20
	for i := 0; i < polls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Fetch(srv.URL, 0)
		}()
		time.Sleep(interval)
		peak = max(peak, runtime.NumGoroutine())
	}
	wg.Wait()
	// A stuck request costs a handful of goroutines (the caller, the
	// connection's reader and writer, the server's handler); without the
	// deadline the peak grows by that handful on every one of the polls.
	if grown := peak - base; grown > 40 {
		t.Fatalf("goroutines grew by %d over %d polls of a silent origin", grown, polls)
	}
}

// oversized returns a body one byte past the cap.
var oversized = sync.OnceValue(func() []byte { return bytes.Repeat([]byte{'x'}, maxBodyBytes+1) })

// TestHTTPFetchRejectsOversizedBody pins the body cap: a 200 body one
// byte past it is a fetch error — whether the origin declares its length
// or streams it — never a document cut off at the cap.
func TestHTTPFetchRejectsOversizedBody(t *testing.T) {
	for _, declared := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if declared {
				w.Header().Set("Content-Length", strconv.Itoa(len(oversized())))
			} else {
				w.(http.Flusher).Flush() // no length: the body streams chunked
			}
			w.Write(oversized())
		}))
		f := NewHTTPFetcher(10 * time.Second)
		res, err := f.Fetch(srv.URL, 0)
		if !errors.Is(err, errBodyTooLarge) || res.Body != nil {
			t.Errorf("declared=%v: Fetch = %d body bytes, err %v; want errBodyTooLarge", declared, len(res.Body), err)
		}
		f.Close()
		srv.Close()
	}
}

// TestOversizedBodyIsNoUpdate runs the cap through a polling owner: the
// oversized version is neither detected nor recorded.
func TestOversizedBodyIsNoUpdate(t *testing.T) {
	var body atomic.Value
	body.Store(oversized())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", "1")
		w.Write(body.Load().([]byte))
	}))
	defer srv.Close()

	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	overlay := net.Node(pastry.Addr{ID: ids.Random(sim.RNG("ids")), Endpoint: "sim://0"})
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 1
	cfg.PollInterval = 1000 * time.Hour // the test drives every poll
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	n := NewNode(cfg, overlay, sim, f, &diffRecorder{diffs: make(map[uint64]string)}, nil)
	n.Start()
	if err := n.Subscribe("alice", srv.URL); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	ch := n.channel(srv.URL)

	n.pollChannel(ch)
	if got := n.Stats().UpdatesDetected; got != 0 {
		t.Fatalf("an oversized body was detected as %d update(s)", got)
	}
	body.Store([]byte("<rss><item>news</item></rss>\n"))
	n.pollChannel(ch)
	if got := n.Stats().UpdatesDetected; got != 1 {
		t.Fatalf("a body within the cap was detected as %d update(s), want 1", got)
	}
}

// TestHTTPFetchReusesReleasedBody pins the body buffer's lifetime: a 200
// body handed back through ReleaseBody is what the next 200 is read into,
// a buffer past maxKeptBodyBytes is not kept, and a node's poll hands its
// body back once extraction is done with it.
func TestHTTPFetchReusesReleasedBody(t *testing.T) {
	var version atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := version.Add(1)
		w.Header().Set("ETag", strconv.FormatUint(v, 10))
		fmt.Fprintf(w, "<rss><item>news %d</item></rss>\n", v)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()

	first, err := f.Fetch(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.ReleaseBody(first.Body)
	second, err := f.Fetch(srv.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := "<rss><item>news 2</item></rss>\n"; string(second.Body) != want {
		t.Fatalf("second body %q, want %q", second.Body, want)
	}
	if &second.Body[:1][0] != &first.Body[:1][0] {
		t.Fatal("the second poll did not read into the released buffer")
	}

	f.ReleaseBody(make([]byte, 0, maxKeptBodyBytes+1))
	if buf := f.takeBody(); buf != nil {
		t.Fatalf("kept a %d-byte buffer past the %d-byte cap", cap(buf), maxKeptBodyBytes)
	}

	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	overlay := net.Node(pastry.Addr{ID: ids.Random(sim.RNG("ids")), Endpoint: "sim://0"})
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 1
	cfg.PollInterval = 1000 * time.Hour // the test drives every poll
	n := NewNode(cfg, overlay, sim, f, &diffRecorder{diffs: make(map[uint64]string)}, nil)
	n.Start()
	if err := n.Subscribe("alice", srv.URL); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	n.pollChannel(n.channel(srv.URL))
	if got := n.Stats().UpdatesDetected; got != 1 {
		t.Fatalf("poll detected %d update(s), want 1", got)
	}
	if buf := f.takeBody(); cap(buf) == 0 {
		t.Fatal("the poll did not hand its body back to the fetcher")
	}
}

// TestHTTPFetchReusesConnection pins connection reuse: polls of one
// origin from one fetcher — 200s, 304s and error statuses alike — share
// one connection, because every response body is read or drained before
// it is closed.
func TestHTTPFetchReusesConnection(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/gone":
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, "<html><body>%s</body></html>\n", bytes.Repeat([]byte("not here "), 500))
		case r.Header.Get("If-None-Match") == "3":
			w.WriteHeader(http.StatusNotModified)
		default:
			w.Header().Set("ETag", "3")
			w.Write([]byte("<rss>v3</rss>\n"))
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	if res, err := f.Fetch(srv.URL+"/feed", 0); err != nil || res.Version != 3 {
		t.Fatalf("first fetch = %+v, %v", res, err)
	}
	for i := 0; i < 5; i++ {
		if res, err := f.Fetch(srv.URL+"/feed", 3); err != nil || res.Modified {
			t.Fatalf("conditional fetch %d = %+v, %v; want not modified", i, res, err)
		}
		if _, err := f.Fetch(srv.URL+"/gone", 0); err == nil {
			t.Fatalf("fetch %d of a 404 succeeded", i)
		}
	}
	if got := opened.Load(); got != 1 {
		t.Fatalf("11 sequential polls opened %d connections, want 1", got)
	}
}

// TestHTTPFetchOpaqueETagRevalidates polls an origin whose ETags are
// quoted strings, not versions, and which answers 304 only to the ETag it
// last sent. The fetcher sends that ETag back while it holds the version
// the 200 was given: unchanged content is a 304 at that version, changed
// content a 200 at the next one, and a poll holding another version gets
// a 200 without a validator.
func TestHTTPFetchOpaqueETagRevalidates(t *testing.T) {
	var mu sync.Mutex
	etag, body := `"a1"`, "<rss>a</rss>\n"
	var sent []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		sent = append(sent, r.Header.Get("If-None-Match"))
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	poll := func(have uint64) webserver.FetchResult {
		t.Helper()
		res, err := f.Fetch(srv.URL+"/feed", have)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := poll(0); !res.Modified || res.Version != 1 || string(res.Body) != "<rss>a</rss>\n" {
		t.Fatalf("first poll = %+v, want a 200 at version 1", res)
	}
	for i := 0; i < 3; i++ {
		if res := poll(1); res.Modified || res.Version != 1 {
			t.Fatalf("poll %d of unchanged content = %+v, want a 304 at version 1", i, res)
		}
	}
	mu.Lock()
	etag, body = `"b2"`, "<rss>b</rss>\n"
	mu.Unlock()
	if res := poll(1); !res.Modified || res.Version != 2 || string(res.Body) != "<rss>b</rss>\n" {
		t.Fatalf("poll of changed content = %+v, want a 200 at version 2", res)
	}
	if res := poll(2); res.Modified || res.Version != 2 {
		t.Fatalf("poll after the change = %+v, want a 304 at version 2", res)
	}
	// A version the fetcher did not give (another node's push raised it)
	// is not one the stored ETag stands for.
	if res := poll(7); !res.Modified || res.Version != 8 {
		t.Fatalf("poll holding version 7 = %+v, want a 200 at version 8", res)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"", `"a1"`, `"a1"`, `"a1"`, `"a1"`, `"b2"`, "7"}
	if strings.Join(sent, " ") != strings.Join(want, " ") {
		t.Fatalf("If-None-Match sent = %q, want %q", sent, want)
	}
}

// TestHTTPFetchConcurrentPolls polls channels of different sizes from
// several goroutines through one fetcher, racing its per-URL size hints,
// the body buffers each poll hands back and a Close: every body must
// arrive whole.
func TestHTTPFetchConcurrentPolls(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Path[1:])
		w.Write(bytes.Repeat([]byte{'a' + byte(n%26)}, 1000*n))
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := 1 + (g+i)%8
				res, err := f.Fetch(fmt.Sprintf("%s/%d", srv.URL, n), 0)
				if err != nil || !bytes.Equal(res.Body, bytes.Repeat([]byte{'a' + byte(n%26)}, 1000*n)) {
					t.Errorf("poll of /%d: %d bytes, err %v", n, len(res.Body), err)
					return
				}
				f.ReleaseBody(res.Body)
				if g == 0 && i == 20 {
					f.Close()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkHTTPFetch polls a feed.Generator document over a loopback
// origin: "304" answers the validator, "200" serves the whole body; both
// count the net/http server's work too. "304-canned" polls an origin that
// answers from a fixed buffer, so its figures are the poller's own.
func BenchmarkHTTPFetch(b *testing.B) {
	doc, err := feed.NewGenerator("http://bench.example/feed.xml", 1).Snapshot(eventsim.Epoch)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", "1")
		if r.Header.Get("If-None-Match") == "1" {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write(doc)
	}))
	defer srv.Close()
	canned := cannedOrigin(b, "HTTP/1.1 304 Not Modified\r\nETag: 1\r\n\r\n")
	for _, arm := range []struct {
		name, url string
		have      uint64
	}{{"304", srv.URL, 1}, {"200", srv.URL, 0}, {"304-canned", canned, 1}} {
		b.Run(arm.name, func(b *testing.B) {
			f := NewHTTPFetcher(10 * time.Second)
			defer f.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := f.Fetch(arm.url, arm.have); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHTTPFetchHTTPS polls a TLS origin: the fetcher speaks https when
// the URL asks for it and verifies the origin against its trust roots.
func TestHTTPFetchHTTPS(t *testing.T) {
	srv := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", "4")
		w.Write([]byte("<rss>secure</rss>\n"))
	}))
	defer srv.Close()

	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	if _, err := f.Fetch(srv.URL, 0); err == nil {
		t.Fatal("fetch from an origin with an untrusted certificate succeeded")
	}
	trustOrigin(f, srv)
	for i := 0; i < 2; i++ {
		res, err := f.Fetch(srv.URL+"/feed", 0)
		if err != nil || res.Version != 4 || string(res.Body) != "<rss>secure</rss>\n" {
			t.Fatalf("https fetch %d = %+v, %v", i, res, err)
		}
	}
}

// TestHTTPFetchFollowsRedirects follows a 301 then a 302 to the document
// and reports the final response's version.
func TestHTTPFetchFollowsRedirects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/old":
			http.Redirect(w, r, "/moved", http.StatusMovedPermanently)
		case "/moved":
			http.Redirect(w, r, "/feed.xml", http.StatusFound)
		case "/feed.xml":
			w.Header().Set("ETag", "9")
			w.Write([]byte("<rss>final</rss>\n"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	res, err := f.Fetch(srv.URL+"/old", 0)
	if err != nil || res.Version != 9 || string(res.Body) != "<rss>final</rss>\n" {
		t.Fatalf("fetch through 301 -> 302 -> 200 = %+v, %v", res, err)
	}
}

// TestHTTPFetchRedirectLoopFails pins the redirect limit: an origin that
// redirects forever is a poll error after at most 11 requests.
func TestHTTPFetchRedirectLoopFails(t *testing.T) {
	var hops atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hops.Add(1)
		http.Redirect(w, r, fmt.Sprintf("/hop/%d", n), http.StatusFound)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	if res, err := f.Fetch(srv.URL+"/hop/0", 0); err == nil {
		t.Fatalf("fetch through a redirect loop = %+v, want an error", res)
	}
	if got := hops.Load(); got > 11 {
		t.Fatalf("redirect loop followed for %d requests, want at most 11", got)
	}
}

// TestHTTPFetchSendsURLCredentials sends a URL's user information as
// basic authentication.
func TestHTTPFetchSendsURLCredentials(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if user, pass, ok := r.BasicAuth(); !ok || user != "reader" || pass != "s3cret" {
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		w.Header().Set("ETag", "3")
		w.Write([]byte("<rss>private</rss>\n"))
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	u := "http://reader:s3cret@" + strings.TrimPrefix(srv.URL, "http://") + "/private.xml"
	if res, err := f.Fetch(u, 0); err != nil || res.Version != 3 {
		t.Fatalf("fetch with URL credentials = %+v, %v", res, err)
	}
}

// TestHTTPFetchSkipsInterimResponses reads past a 103 Early Hints
// response to the final one.
func TestHTTPFetchSkipsInterimResponses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", "</style.css>; rel=preload")
		w.WriteHeader(http.StatusEarlyHints)
		w.Header().Set("ETag", "8")
		w.Write([]byte("<rss>hinted</rss>\n"))
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	for i := 0; i < 2; i++ {
		if res, err := f.Fetch(srv.URL, 0); err != nil || res.Version != 8 || string(res.Body) != "<rss>hinted</rss>\n" {
			t.Fatalf("fetch %d after a 103 = %+v, %v", i, res, err)
		}
	}
}

// gzipped returns b gzip-compressed.
func gzipped(t testing.TB, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPFetchDecodesGzip pins transparent decompression: the fetcher
// offers gzip, and a gzip-encoded 200 yields the decoded document with
// its ETag version.
func TestHTTPFetchDecodesGzip(t *testing.T) {
	doc := bytes.Repeat([]byte("<item>compressible news</item>\n"), 200)
	packed := gzipped(t, doc)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			t.Errorf("request offers Accept-Encoding %q, want gzip", r.Header.Get("Accept-Encoding"))
		}
		w.Header().Set("ETag", "12")
		w.Header().Set("Content-Encoding", "gzip")
		w.Write(packed)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	for i := 0; i < 2; i++ {
		res, err := f.Fetch(srv.URL, 0)
		if err != nil || res.Version != 12 || !bytes.Equal(res.Body, doc) {
			t.Fatalf("gzip fetch %d = version %d, %d body bytes, err %v; want version 12, %d bytes", i, res.Version, len(res.Body), err, len(doc))
		}
	}
}

// TestHTTPFetchCapsDecodedGzipBody applies the body cap to the decoded
// document: a chunked gzip stream a few KiB long that inflates past the
// cap is errBodyTooLarge.
func TestHTTPFetchCapsDecodedGzipBody(t *testing.T) {
	packed := gzipped(t, oversized())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Encoding", "gzip")
		w.(http.Flusher).Flush() // no length: the body streams chunked
		w.Write(packed)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	res, err := f.Fetch(srv.URL, 0)
	if !errors.Is(err, errBodyTooLarge) || res.Body != nil {
		t.Fatalf("Fetch = %d body bytes, err %v; want errBodyTooLarge", len(res.Body), err)
	}
}

// TestHTTPFetchRejectsControlCharacters refuses a URL that would smuggle
// a header into the request, before it dials the origin.
func TestHTTPFetchRejectsControlCharacters(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	for _, bad := range []string{"/feed\r\nX-Injected: 1", "/feed\x00", "/feed\x7f"} {
		if _, err := f.Fetch(srv.URL+bad, 0); err == nil {
			t.Errorf("fetch of %q succeeded", bad)
		}
	}
	if got := opened.Load(); got != 0 {
		t.Fatalf("rejected URLs opened %d connections", got)
	}
}

// TestHTTPFetchRetriesClosedIdleConnection polls an origin that closes
// its idle keep-alive connections between polls: the next poll finds its
// pooled connection dead and succeeds on a fresh one, without an error.
func TestHTTPFetchRetriesClosedIdleConnection(t *testing.T) {
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", "2")
		w.Write([]byte("<rss>v2</rss>\n"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	for i := 0; i < 3; i++ {
		if res, err := f.Fetch(srv.URL, 0); err != nil || res.Version != 2 {
			t.Fatalf("poll %d = %+v, %v", i, res, err)
		}
		srv.CloseClientConnections()
	}
	if got := opened.Load(); got != 3 {
		t.Fatalf("3 polls across closed idle connections opened %d connections, want 3", got)
	}
}

// TestHTTPFetchCloseDuringPoll closes the fetcher while a poll waits on
// its origin: the poll completes, and its connection is closed instead of
// returning to the pool.
func TestHTTPFetchCloseDuringPoll(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	closed := make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.Header().Set("ETag", "6")
		w.Write([]byte("<rss>v6</rss>\n"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			close(closed)
		}
	}
	srv.Start()
	defer srv.Close()

	f := NewHTTPFetcher(10 * time.Second)
	type result struct {
		res webserver.FetchResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := f.Fetch(srv.URL, 0)
		done <- result{res, err}
	}()
	<-entered
	f.Close()
	close(release)
	r := <-done
	if r.err != nil || r.res.Version != 6 {
		t.Fatalf("poll in flight across Close = %+v, %v", r.res, r.err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the in-flight poll's connection stayed open after Close")
	}
}

// trustOrigin makes f trust the TLS test server srv's certificate.
func trustOrigin(f *HTTPFetcher, srv *httptest.Server) {
	f.rootCAs = srv.Client().Transport.(*http.Transport).TLSClientConfig.RootCAs
}

// TestHTTPFetchCountsDials counts connections, not polls: polls share
// one keep-alive connection, and one the origin closed while idle costs
// exactly one more dial.
func TestHTTPFetchCountsDials(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	}))
	defer srv.Close()
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	poll := func() {
		t.Helper()
		if _, err := f.Fetch(srv.URL, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		poll()
	}
	if got := f.Dials(); got != 1 {
		t.Fatalf("5 polls dialed %d connections, want 1", got)
	}
	srv.CloseClientConnections()
	poll()
	if got := f.Dials(); got != 2 {
		t.Fatalf("a poll across a closed idle connection brought the dials to %d, want 2", got)
	}
}

// TestPollErrorsCounted counts a failed poll in Stats.PollErrors instead
// of dropping it silently.
func TestPollErrorsCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	overlay := net.Node(pastry.Addr{ID: ids.Random(sim.RNG("ids")), Endpoint: "sim://0"})
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 1
	cfg.PollInterval = 1000 * time.Hour // the test drives every poll
	f := NewHTTPFetcher(10 * time.Second)
	defer f.Close()
	n := NewNode(cfg, overlay, sim, f, nil, nil)
	n.Start()
	if err := n.Subscribe("alice", srv.URL); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	before := n.Stats()
	n.pollChannel(n.channel(srv.URL))
	after := n.Stats()
	if after.PollsIssued != before.PollsIssued+1 || after.PollErrors != before.PollErrors+1 {
		t.Fatalf("a 503 poll moved polls %d -> %d and errors %d -> %d, want one each",
			before.PollsIssued, after.PollsIssued, before.PollErrors, after.PollErrors)
	}
}
