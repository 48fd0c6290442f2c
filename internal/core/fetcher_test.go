package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/feed"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
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
	var overlay *pastry.Node
	endpoint := net.Attach("sim://0", func(m pastry.Message) { overlay.Deliver(m) })
	overlay = pastry.NewNode(pastry.DefaultConfig(), pastry.Addr{ID: ids.Random(sim.RNG("ids")), Endpoint: "sim://0"}, endpoint, sim)
	overlay.Bootstrap()
	cfg := DefaultConfig()
	cfg.NodeCount = 1
	cfg.ContentMode = true
	cfg.CountSubscribersOnly = false
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

// TestHTTPFetchConcurrentPolls polls channels of different sizes from
// several goroutines through one fetcher, racing its per-URL size hints
// and a Close: every body must arrive whole.
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
				if g == 0 && i == 20 {
					f.Close()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkHTTPFetch polls a feed.Generator document over a loopback
// origin: "304" answers the validator, "200" serves the whole body.
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
	for _, arm := range []struct {
		name string
		have uint64
	}{{"304", 1}, {"200", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			f := NewHTTPFetcher(10 * time.Second)
			defer f.Close()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := f.Fetch(srv.URL, arm.have); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
