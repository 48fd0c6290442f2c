package webserver

import (
	"fmt"
	"sync"
	"time"

	"corona/internal/feed"
)

// FetchResult is the outcome of one poll against an origin.
type FetchResult struct {
	// Version is the content version served.
	Version uint64
	// Modified reports whether the content changed relative to the
	// client's validator (false means a 304-style response).
	Modified bool
	// Bytes is the number of payload bytes transferred, the unit of the
	// paper's network-load accounting.
	Bytes int
	// Body is the document itself; nil for a channel with no content
	// Generator, which serves versions alone.
	Body []byte
}

// probeCost is the transfer cost of a not-modified response (request +
// response headers), charged when a conditional poll finds no change.
const probeCost = 300

// ChannelConfig describes one hosted channel.
type ChannelConfig struct {
	// URL identifies the channel.
	URL string
	// SizeBytes is the full content transfer size (the sᵢ tradeoff
	// factor). The workload generator draws it from the survey's size
	// distribution.
	SizeBytes int
	// Process drives the channel's updates.
	Process UpdateProcess
	// Generator, when non-nil, backs the channel with real RSS content:
	// each version renders an actual document (deployment mode).
	Generator *feed.Generator
}

// channelState is the origin-side record for a channel.
type channelState struct {
	cfg ChannelConfig

	// renderedVersion tracks content materialization in generator mode.
	renderedVersion uint64
	renderedBody    []byte

	polls       uint64
	bytesServed uint64
	notModified uint64
}

// Origin simulates the set of legacy web servers that host channels. One
// Origin instance can host all channels of an experiment; accounting is
// per channel, which is what the figures report.
//
// Methods are safe for concurrent use (live mode); simulations call them
// single-threaded.
type Origin struct {
	mu       sync.Mutex
	channels map[string]*channelState
}

// NewOrigin creates an empty origin.
func NewOrigin() *Origin {
	return &Origin{channels: make(map[string]*channelState)}
}

// Host registers a channel. Registering an existing URL replaces it.
func (o *Origin) Host(cfg ChannelConfig) {
	if cfg.SizeBytes <= 0 {
		cfg.SizeBytes = 5 * 1024
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.channels[cfg.URL] = &channelState{cfg: cfg}
}

// Channels returns the hosted URLs.
func (o *Origin) Channels() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.channels))
	for url := range o.channels {
		out = append(out, url)
	}
	return out
}

// Fetch polls a channel unconditionally: the full content is transferred,
// as legacy RSS readers of the era did on every poll.
func (o *Origin) Fetch(url string, now time.Time) (FetchResult, error) {
	return o.fetch(url, now, 0)
}

// FetchConditional polls with a version validator (the moral equivalent of
// If-Modified-Since/ETag): unchanged content costs only the probe bytes.
func (o *Origin) FetchConditional(url string, now time.Time, haveVersion uint64) (FetchResult, error) {
	return o.fetch(url, now, haveVersion)
}

func (o *Origin) fetch(url string, now time.Time, haveVersion uint64) (FetchResult, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ch, ok := o.channels[url]
	if !ok {
		return FetchResult{}, fmt.Errorf("webserver: no such channel %q", url)
	}
	version := ch.cfg.Process.VersionAt(now)
	ch.polls++
	if haveVersion != 0 && version == haveVersion {
		ch.notModified++
		ch.bytesServed += probeCost
		return FetchResult{Version: version, Modified: false, Bytes: probeCost}, nil
	}
	res := FetchResult{Version: version, Modified: true, Bytes: ch.cfg.SizeBytes}
	if g := ch.cfg.Generator; g != nil {
		// Materialize real content through the requested version.
		for ch.renderedVersion < version {
			ch.renderedVersion++
			g.Update(ch.cfg.Process.UpdateTime(ch.renderedVersion))
		}
		body, err := g.Snapshot(now)
		if err != nil {
			return FetchResult{}, fmt.Errorf("webserver: rendering %q: %w", url, err)
		}
		ch.renderedBody = body
		res.Body = body
		res.Bytes = len(body)
	}
	ch.bytesServed += uint64(res.Bytes)
	return res, nil
}

// ChannelLoad reports a channel's cumulative accounting.
type ChannelLoad struct {
	URL         string
	Polls       uint64
	BytesServed uint64
	NotModified uint64
}

// Load returns the accounting for one channel.
func (o *Origin) Load(url string) (ChannelLoad, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ch, ok := o.channels[url]
	if !ok {
		return ChannelLoad{}, false
	}
	return ChannelLoad{URL: url, Polls: ch.polls, BytesServed: ch.bytesServed, NotModified: ch.notModified}, true
}

// TotalLoad sums accounting across all channels.
func (o *Origin) TotalLoad() ChannelLoad {
	o.mu.Lock()
	defer o.mu.Unlock()
	var total ChannelLoad
	for _, ch := range o.channels {
		total.Polls += ch.polls
		total.BytesServed += ch.bytesServed
		total.NotModified += ch.notModified
	}
	return total
}

// ResetLoad zeroes the accounting counters (used between experiment
// warm-up and measurement phases).
func (o *Origin) ResetLoad() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ch := range o.channels {
		ch.polls, ch.bytesServed, ch.notModified = 0, 0, 0
	}
}

// Process returns a channel's update process, used by the measurement
// harness to compute exact detection latencies.
func (o *Origin) Process(url string) (UpdateProcess, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ch, ok := o.channels[url]
	if !ok {
		return nil, false
	}
	return ch.cfg.Process, true
}
