package main

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/diffengine"
)

// receipt is one notification as a subscriber saw it.
type receipt struct {
	ver  uint64
	at   time.Time
	diff string
}

// sub is one subscription the benchmark holds: an in-process deliverer
// on an entry node, or a channel of an edge session (SDK or WebSocket).
type sub struct {
	name string
	url  string
	path string // the origin's key for url
	node int    // entry node index
	// pinned subscriptions never churn: they anchor the edge sessions'
	// latency pairing on their entry nodes.
	pinned bool

	// from and until bound the subscription: the Subscribe and
	// Unsubscribe call instants (until zero while it is held).
	mu    sync.Mutex
	from  time.Time
	until time.Time
	recs  []receipt
}

// receipts counts receipts across every subscriber, for the traced run's
// per-slice CPU accounting.
var receipts atomic.Uint64

func (s *sub) record(ver uint64, at time.Time, diff string) {
	s.mu.Lock()
	s.recs = append(s.recs, receipt{ver: ver, at: at, diff: diff})
	s.mu.Unlock()
	receipts.Add(1)
}

func (s *sub) setUntil(t time.Time) {
	s.mu.Lock()
	s.until = t
	s.mu.Unlock()
}

// channelView is what the auditor needs to know about one channel from
// the origin: which versions it first served inside the window, when it
// published and first served each, and the bodies it served.
type channelView interface {
	servedIn(from, to time.Time) []uint64
	firstServed(v uint64) (time.Time, bool)
	body(v uint64) ([]byte, bool)
	UpdateTime(v uint64) time.Time
}

// auditRules fix what counts as a delivery the system owed.
type auditRules struct {
	// from, to bound the window: versions first served inside it are
	// scored.
	from, to time.Time
	// settle is how long before a version's publication a subscription
	// must have been requested to count as stable across the update; an
	// asynchronous Subscribe needs time to reach the owner.
	settle time.Duration
	// drain is how long after a version's first 200 a subscription must
	// still be held to count as stable, and how long a delivery may take.
	drain time.Duration
}

// auditResult tallies one window's deliveries.
type auditResult struct {
	expected   int // (stable subscription, version) pairs owed a delivery
	missing    int // owed but never received within the drain
	duplicates int // extra receipts of a version already received
	disorder   int // receipts of a version lower than one received earlier
	badDiffs   int // receipts whose diff does not rebuild the origin's content
	skipped    int // window versions no subscriber of the channel received
	samples    []latency
}

// latency is one owed delivery's timing, in milliseconds, with the
// update it delivered and the instant that version was first served
// (which places it in a slice of the window).
type latency struct {
	path   string
	ver    uint64
	first  time.Time
	notify float64 // receipt − first 200
	fresh  float64 // receipt − publication
}

// failures counts the owed deliveries that did not arrive exactly once
// and in order.
func (a auditResult) failures() int { return a.missing + a.duplicates + a.disorder }

// intact is the share of owed deliveries that arrived exactly once, in
// order, with a diff that rebuilds the origin's content.
func (a auditResult) intact() float64 {
	return 1 - ratio(float64(a.failures()+a.badDiffs), float64(a.expected))
}

// audit scores every subscriber's receipts against the origin's record.
// A version is owed to each subscription stable across it as soon as any
// subscriber of the channel received it: the protocol may legitimately
// supersede a version before anyone is told of it (a newer one landed
// first), but never deliver it to some subscribers and not others. A
// channel whose window versions reached nobody at all is a black hole,
// and every stable subscription is owed every one of them.
func audit(subs []*sub, chans map[string]channelView, r auditRules) auditResult {
	var res auditResult
	byPath := make(map[string][]*sub)
	for _, s := range subs {
		byPath[s.path] = append(byPath[s.path], s)
	}
	for path, group := range byPath {
		c := chans[path]
		if c == nil {
			continue
		}
		checker := newDiffChecker(c)
		window := c.servedIn(r.from, r.to)
		if len(window) == 0 {
			continue
		}
		inWindow := make(map[uint64]bool, len(window))
		for _, v := range window {
			inWindow[v] = true
		}
		stable := func(s *sub, v uint64) bool {
			first, _ := c.firstServed(v)
			return s.from.Before(c.UpdateTime(v).Add(-r.settle)) && (s.until.IsZero() || s.until.After(first.Add(r.drain)))
		}
		reached := make(map[uint64]bool)
		for _, s := range group {
			s.mu.Lock()
			for _, rc := range s.recs {
				if inWindow[rc.ver] && stable(s, rc.ver) {
					reached[rc.ver] = true
				}
			}
			s.mu.Unlock()
		}
		blackHole := len(reached) == 0
		for _, v := range window {
			if !reached[v] && !blackHole {
				res.skipped++
			}
		}
		for _, s := range group {
			s.mu.Lock()
			seen := make(map[uint64]bool)
			var high uint64
			for _, rc := range s.recs {
				if !inWindow[rc.ver] || !stable(s, rc.ver) {
					continue
				}
				first, _ := c.firstServed(rc.ver)
				switch {
				case seen[rc.ver]:
					res.duplicates++
					continue
				case rc.at.After(first.Add(r.drain)):
					continue // too late: scored as missing below
				case rc.ver < high:
					res.disorder++
				}
				seen[rc.ver] = true
				if rc.ver > high {
					high = rc.ver
				}
				if !checker.rebuilds(rc.ver, rc.diff) {
					res.badDiffs++
				}
				res.samples = append(res.samples, latency{path: path, ver: rc.ver, first: first, notify: ms(rc.at.Sub(first)), fresh: ms(rc.at.Sub(c.UpdateTime(rc.ver)))})
			}
			for _, v := range window {
				if (reached[v] || blackHole) && stable(s, v) {
					res.expected++
					if !seen[v] {
						res.missing++
					}
				}
			}
			s.mu.Unlock()
		}
	}
	return res
}

// diffChecker verifies one channel's delivered diffs against the
// origin's bodies, deciding each distinct (version, diff) once.
type diffChecker struct {
	c       channelView
	extract *diffengine.Extractor
	content map[uint64][]string
	verdict map[diffKey]bool
}

type diffKey struct {
	v    uint64
	diff string
}

func newDiffChecker(c channelView) *diffChecker {
	return &diffChecker{
		c:       c,
		extract: diffengine.RSSProfile(),
		content: make(map[uint64][]string),
		verdict: make(map[diffKey]bool),
	}
}

// rebuilds reports whether applying the delivered diff to the core
// content of the version it names as its base yields the core content of
// the delivered version, both extracted from the bytes the origin served.
func (d *diffChecker) rebuilds(v uint64, diff string) bool {
	key := diffKey{v, diff}
	ok, done := d.verdict[key]
	if !done {
		ok = d.check(v, diff)
		d.verdict[key] = ok
	}
	return ok
}

func (d *diffChecker) check(v uint64, diff string) bool {
	dd, err := diffengine.Decode(diff)
	if err != nil || dd.NewVersion != v {
		return false
	}
	var base []string
	if dd.OldVersion != 0 {
		var ok bool
		if base, ok = d.core(dd.OldVersion); !ok {
			return false
		}
	}
	want, ok := d.core(v)
	if !ok {
		return false
	}
	got, err := dd.Apply(base)
	return err == nil && slices.Equal(got, want)
}

// core extracts (once) the core content of a served version.
func (d *diffChecker) core(v uint64) ([]string, bool) {
	if lines, ok := d.content[v]; ok {
		return lines, true
	}
	body, ok := d.c.body(v)
	if !ok {
		return nil, false
	}
	lines := d.extract.Extract(string(body))
	d.content[v] = lines
	return lines, true
}
