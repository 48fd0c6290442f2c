package clientproto

import (
	"sync"
	"time"
)

// DefaultReplayCap is the per-channel capacity of a node's replay rings:
// enough to ride out a browser reconnect (seconds to a minute) on an
// active channel without holding feed history forever.
const DefaultReplayCap = 256

// Entry is one buffered notification: what a reconnecting client fetches
// for the versions it missed.
type Entry struct {
	Version uint64
	Diff    string
	At      time.Time
}

// Replay is the node's per-channel replay memory: a bounded,
// version-indexed ring per channel, appended to by the SessionTable's
// NotifyBatch (every update the node would deliver to any local client,
// whether or not one has a session) and read by reconnecting sessions
// resuming from a version cursor. Versions in a ring are strictly
// increasing — the table can see one update several times (one batch
// per delegate shard reaching this entry node), so Append drops
// anything at or below the newest buffered version.
type Replay struct {
	mu       sync.Mutex
	capacity int
	channels map[string]*ring

	hits   uint64 // From calls served entirely out of the buffer
	misses uint64 // From calls that had to signal snapshot-required
	wraps  uint64 // buffered entries overwritten before anyone read them
}

// ring is one channel's buffer: a circular slice with start pointing at
// the oldest live entry. It grows by appending until it holds the
// Replay's capacity and only then wraps, so a channel that sees a few
// updates holds a few entries.
type ring struct {
	buf   []Entry
	start int
	n     int
}

// NewReplay returns a replay memory with the given positive per-channel
// capacity.
func NewReplay(capacity int) *Replay {
	return &Replay{capacity: capacity, channels: make(map[string]*ring)}
}

// Append records one update. Out-of-order and duplicate versions (a
// re-observed delegate batch, a replayed owner handoff) are dropped; a
// full ring overwrites its oldest entry, counting the wrap.
func (r *Replay) Append(channel string, version uint64, diff string, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg := r.channels[channel]
	if rg == nil {
		rg = &ring{}
		r.channels[channel] = rg
	}
	if rg.n > 0 && version <= rg.at(rg.n-1).Version {
		return
	}
	e := Entry{Version: version, Diff: diff, At: at}
	if rg.n < r.capacity {
		// Not yet full: start is 0 and buf holds exactly the n entries.
		if rg.n == cap(rg.buf) {
			grown := make([]Entry, rg.n, min(max(2*rg.n, 4), r.capacity))
			copy(grown, rg.buf)
			rg.buf = grown
		}
		rg.buf = append(rg.buf, e)
		rg.n++
		return
	}
	rg.buf[rg.start] = e
	rg.start = (rg.start + 1) % len(rg.buf)
	r.wraps++
}

// at returns the i-th oldest live entry; callers hold r.mu.
func (rg *ring) at(i int) *Entry {
	return &rg.buf[(rg.start+i)%len(rg.buf)]
}

// From returns, in version order, every buffered entry of channel with a
// version strictly greater than since, and whether that is the complete
// set of updates the channel saw after since. complete is false — the
// caller must signal snapshot-required instead of replaying — when the
// buffer cannot prove it covers the gap: the ring has wrapped past since
// (its oldest entry is beyond since+1's position in the version stream),
// or the channel has no buffered history at all to judge by. A since at
// or ahead of the newest buffered version is complete with no entries.
//
// The returned slice is freshly allocated; appends racing the copy never
// mutate it.
func (r *Replay) From(channel string, since uint64) (entries []Entry, complete bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg := r.channels[channel]
	if rg == nil || rg.n == 0 {
		r.misses++
		return nil, false
	}
	newest := rg.at(rg.n - 1).Version
	if since >= newest {
		r.hits++
		return nil, true
	}
	oldest := rg.at(0).Version
	// The buffer proves completeness only when it still holds the first
	// version after since: version streams are strictly increasing but
	// not dense (an owner can assign gaps across restarts), so the
	// conservative test is "the oldest buffered version is <= since+1 OR
	// <= since" — i.e. nothing between since and the buffer head can
	// have been evicted. oldest > since+1 means versions in (since,
	// oldest) may have existed and wrapped away.
	if oldest > since+1 {
		r.misses++
		return nil, false
	}
	for i := 0; i < rg.n; i++ {
		if e := rg.at(i); e.Version > since {
			entries = append(entries, *e)
		}
	}
	r.hits++
	return entries, true
}

// Newest returns the newest buffered version of channel, zero when none.
func (r *Replay) Newest(channel string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	rg := r.channels[channel]
	if rg == nil || rg.n == 0 {
		return 0
	}
	return rg.at(rg.n - 1).Version
}

// ReplayStats is one coherent snapshot of the replay counters.
type ReplayStats struct {
	Hits   uint64
	Misses uint64
	Wraps  uint64
}

// Stats snapshots the replay counters under one lock acquisition.
func (r *Replay) Stats() ReplayStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplayStats{Hits: r.hits, Misses: r.misses, Wraps: r.wraps}
}
