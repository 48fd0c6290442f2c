package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"corona/internal/diffengine"
)

// fakeChan is a channelView with hand-set publication and first-200
// instants and one-line-per-version bodies.
type fakeChan struct {
	pub, first map[uint64]time.Time
	bodies     map[uint64][]byte
}

func newFakeChan(t0 time.Time, versions int) *fakeChan {
	c := &fakeChan{pub: map[uint64]time.Time{}, first: map[uint64]time.Time{}, bodies: map[uint64][]byte{}}
	body := ""
	for v := uint64(1); v <= uint64(versions); v++ {
		c.pub[v] = t0.Add(time.Duration(v) * time.Second)
		c.first[v] = c.pub[v].Add(400 * time.Millisecond) // first poll 400ms after publication
		body += "item " + strconv.FormatUint(v, 10) + "\n"
		c.bodies[v] = []byte(body)
	}
	return c
}

func (c *fakeChan) servedIn(from, to time.Time) []uint64 {
	var vs []uint64
	for v := uint64(1); v <= uint64(len(c.first)); v++ {
		if f := c.first[v]; !f.Before(from) && f.Before(to) {
			vs = append(vs, v)
		}
	}
	return vs
}
func (c *fakeChan) firstServed(v uint64) (time.Time, bool) { t, ok := c.first[v]; return t, ok }
func (c *fakeChan) body(v uint64) ([]byte, bool)           { b, ok := c.bodies[v]; return b, ok }
func (c *fakeChan) UpdateTime(v uint64) time.Time          { return c.pub[v] }

// diff is the delta the system should deliver for version v.
func (c *fakeChan) diff(v uint64) string {
	ex := diffengine.RSSProfile()
	var old []string
	if v > 1 {
		old = ex.Extract(string(c.bodies[v-1]))
	}
	return diffengine.Encode(diffengine.Compute(old, ex.Extract(string(c.bodies[v])), v-1, v))
}

// deliver records version v at s, lag after its first 200.
func (c *fakeChan) deliver(s *sub, v uint64, lag time.Duration) {
	s.record(v, c.first[v].Add(lag), c.diff(v))
}

func newSub(name string, from time.Time) *sub {
	return &sub{name: name, url: "u", path: "/feed/0", from: from}
}

// rules score versions 2..4 (first served at t0+2.4s, 3.4s, 4.4s).
func testRules(t0 time.Time) auditRules {
	return auditRules{from: t0.Add(2 * time.Second), to: t0.Add(5 * time.Second), settle: 500 * time.Millisecond, drain: 2 * time.Second}
}

func TestAuditAnchorsLatencyOnFirst200(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := newFakeChan(t0, 6)
	s := newSub("a", t0)
	for v := uint64(2); v <= 4; v++ {
		c.deliver(s, v, 3*time.Millisecond)
	}
	res := audit([]*sub{s}, map[string]channelView{"/feed/0": c}, testRules(t0))
	if res.expected != 3 || res.failures() != 0 || res.badDiffs != 0 {
		t.Fatalf("expected=%d failures=%d bad=%d, want 3 0 0", res.expected, res.failures(), res.badDiffs)
	}
	for _, l := range res.samples {
		if !near(l.notify, 3) || !near(l.fresh, 403) {
			t.Fatalf("notify=%v fresh=%v, want 3ms after the first 200 and 403ms after publication", l.notify, l.fresh)
		}
	}
	if res.intact() != 1 {
		t.Fatalf("intact = %v, want 1", res.intact())
	}
}

func TestAuditCountsMissingDuplicateAndDisorder(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := newFakeChan(t0, 6)
	full, partial, dup, disorder := newSub("full", t0), newSub("partial", t0), newSub("dup", t0), newSub("disorder", t0)
	for v := uint64(2); v <= 4; v++ {
		c.deliver(full, v, time.Millisecond)
		c.deliver(dup, v, time.Millisecond)
	}
	c.deliver(partial, 2, time.Millisecond) // misses 3 and 4
	c.deliver(dup, 3, 5*time.Millisecond)   // a second copy of 3
	c.deliver(disorder, 3, time.Millisecond)
	c.deliver(disorder, 2, 2*time.Second-time.Millisecond) // late but within the drain, after 3
	c.deliver(disorder, 4, time.Millisecond)
	res := audit([]*sub{full, partial, dup, disorder}, map[string]channelView{"/feed/0": c}, testRules(t0))
	if res.expected != 12 || res.missing != 2 || res.duplicates != 1 || res.disorder != 1 {
		t.Fatalf("expected=%d missing=%d dup=%d disorder=%d, want 12 2 1 1", res.expected, res.missing, res.duplicates, res.disorder)
	}
	if res.failures() != 4 || !near(res.intact(), 1-4.0/12) {
		t.Fatalf("failures=%d intact=%v, want 4 and 8/12", res.failures(), res.intact())
	}
}

func TestAuditOwesOnlyStableSubscriptionsAndDeliveredVersions(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := newFakeChan(t0, 6)
	early := newSub("early", t0)
	// Subscribed 200ms before version 3's publication: inside the settle
	// margin for 3, so only version 4 is owed.
	late := newSub("late", c.pub[3].Add(-200*time.Millisecond))
	// Unsubscribed 1.5s after version 3's first 200: gone before its
	// drain ends, so only version 2 is owed.
	gone := newSub("gone", t0)
	gone.until = c.first[3].Add(1500 * time.Millisecond)
	// Nobody gets version 3: the system superseded it, so it is skipped,
	// not missing.
	for _, v := range []uint64{2, 4} {
		c.deliver(early, v, time.Millisecond)
	}
	c.deliver(late, 4, time.Millisecond)
	c.deliver(gone, 2, time.Millisecond)
	res := audit([]*sub{early, late, gone}, map[string]channelView{"/feed/0": c}, testRules(t0))
	if res.expected != 4 || res.failures() != 0 || res.skipped != 1 {
		t.Fatalf("expected=%d failures=%d skipped=%d, want 4 0 1", res.expected, res.failures(), res.skipped)
	}
}

func TestAuditBlackHoleOwesEveryVersion(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := newFakeChan(t0, 6)
	res := audit([]*sub{newSub("a", t0), newSub("b", t0)}, map[string]channelView{"/feed/0": c}, testRules(t0))
	if res.expected != 6 || res.missing != 6 {
		t.Fatalf("expected=%d missing=%d, want 6 6: a channel that reaches nobody owes everything", res.expected, res.missing)
	}
}

func TestAuditLateDeliveryIsMissing(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := newFakeChan(t0, 6)
	s := newSub("a", t0)
	c.deliver(s, 2, time.Millisecond)
	c.deliver(s, 3, 3*time.Second) // beyond the 2s drain
	c.deliver(s, 4, time.Millisecond)
	res := audit([]*sub{s}, map[string]channelView{"/feed/0": c}, testRules(t0))
	if res.missing != 1 || len(res.samples) != 2 {
		t.Fatalf("missing=%d samples=%d, want 1 and 2", res.missing, len(res.samples))
	}
}

func TestAuditFlagsDiffsThatDoNotRebuild(t *testing.T) {
	t0 := time.Unix(0, 0)
	c := newFakeChan(t0, 6)
	s := newSub("a", t0)
	c.deliver(s, 2, time.Millisecond)
	// Version 3's diff computed against empty content but labeled as
	// applying to version 2: a stale base.
	ex := diffengine.RSSProfile()
	stale := diffengine.Encode(diffengine.Compute(nil, ex.Extract(string(c.bodies[3])), 2, 3))
	s.record(3, c.first[3].Add(time.Millisecond), stale)
	c.deliver(s, 4, time.Millisecond)
	res := audit([]*sub{s}, map[string]channelView{"/feed/0": c}, testRules(t0))
	if res.badDiffs != 1 || res.failures() != 0 {
		t.Fatalf("bad=%d failures=%d, want 1 0", res.badDiffs, res.failures())
	}
	if !near(res.intact(), 2.0/3) {
		t.Fatalf("intact = %v, want 2/3", res.intact())
	}
}

func TestOriginRendersOnceAndStampsFirst200(t *testing.T) {
	start := time.Now().Add(-time.Hour)
	o := newOrigin(1, start, time.Hour, 0, 3*time.Hour, 1, nil)
	c := o.chans["/feed/0"]
	v := c.proc.VersionAt(time.Now())
	get := func(etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "http://origin/feed/0", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		rec := httptest.NewRecorder()
		o.ServeHTTP(rec, req)
		return rec
	}
	first := get("")
	if first.Code != http.StatusOK || first.Header().Get("ETag") != strconv.FormatUint(v, 10) {
		t.Fatalf("first poll: %d etag %q, want 200 etag %d", first.Code, first.Header().Get("ETag"), v)
	}
	stamp, ok := c.firstServed(v)
	if !ok {
		t.Fatal("no first-200 instant recorded")
	}
	again := get(strconv.FormatUint(v-1, 10))
	if again.Code != http.StatusOK || again.Body.String() != first.Body.String() {
		t.Fatal("a repeat 200 must replay the bytes rendered for the version")
	}
	if s2, _ := c.firstServed(v); !s2.Equal(stamp) {
		t.Fatal("a repeat 200 moved the first-200 instant")
	}
	if nm := get(strconv.FormatUint(v, 10)); nm.Code != http.StatusNotModified {
		t.Fatalf("matching validator: %d, want 304", nm.Code)
	}
	if o.ok.Load() != 2 || o.notModified.Load() != 1 {
		t.Fatalf("counted %d 200s and %d 304s, want 2 and 1", o.ok.Load(), o.notModified.Load())
	}
	if get("").Code != http.StatusOK || len(c.bodies) != 1 {
		t.Fatalf("rendered %d bodies for one version", len(c.bodies))
	}
}

func TestAddrsArePinnedPerSeed(t *testing.T) {
	if addrsFor(3) != addrsFor(3) {
		t.Fatal("the same seed must bind the same addresses")
	}
	seen := map[string]bool{}
	for s := int64(0); s < 50; s++ {
		seen[addrsFor(s).host] = true
	}
	if len(seen) < 45 {
		t.Fatalf("50 seeds gave only %d hosts", len(seen))
	}
}
