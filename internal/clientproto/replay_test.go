package clientproto

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func entryVersions(entries []Entry) []uint64 {
	vs := make([]uint64, len(entries))
	for i, e := range entries {
		vs[i] = e.Version
	}
	return vs
}

// TestReplayFromBasic covers the plain paths: empty channel, cursor at
// newest, cursor mid-buffer, cursor just below oldest.
func TestReplayFromBasic(t *testing.T) {
	r := NewReplay(8)
	if _, complete := r.From("ch", 0); complete {
		t.Fatal("empty channel should be incomplete (no history to judge by)")
	}
	for v := uint64(1); v <= 5; v++ {
		r.Append("ch", v, fmt.Sprintf("d%d", v), time.Now())
	}
	entries, complete := r.From("ch", 2)
	if !complete {
		t.Fatal("cursor inside buffer should be complete")
	}
	if got, want := fmt.Sprint(entryVersions(entries)), "[3 4 5]"; got != want {
		t.Fatalf("From(2) = %s, want %s", got, want)
	}
	// since == newest: complete, nothing to replay.
	entries, complete = r.From("ch", 5)
	if !complete || len(entries) != 0 {
		t.Fatalf("From(newest) = %v complete=%v, want empty complete", entries, complete)
	}
	// since ahead of newest (client saw more than we buffered — a
	// cross-node resume): still complete, live delivery takes over.
	if _, complete = r.From("ch", 9); !complete {
		t.Fatal("From(ahead of newest) should be complete")
	}
	// since = 0 with oldest = 1 buffered: complete from the start.
	entries, complete = r.From("ch", 0)
	if !complete || len(entries) != 5 {
		t.Fatalf("From(0) = %d entries complete=%v, want 5 complete", len(entries), complete)
	}
}

// TestReplayWrapAtEveryOffset wraps a small ring by every possible
// amount and checks, for every since value, that From either returns
// exactly the surviving suffix or correctly declares the gap
// unprovable.
func TestReplayWrapAtEveryOffset(t *testing.T) {
	const capacity = 4
	for extra := 0; extra <= 2*capacity+1; extra++ {
		r := NewReplay(capacity)
		total := capacity + extra
		for v := 1; v <= total; v++ {
			r.Append("ch", uint64(v), "d", time.Time{})
		}
		oldest, newest := uint64(total-capacity+1), uint64(total)
		if w := r.Stats().Wraps; w != uint64(extra) {
			t.Fatalf("extra=%d: wraps=%d, want %d", extra, w, extra)
		}
		for since := uint64(0); since <= newest+1; since++ {
			entries, complete := r.From("ch", since)
			switch {
			case since >= newest:
				if !complete || len(entries) != 0 {
					t.Fatalf("extra=%d since=%d: got %v/%v, want empty complete", extra, since, entries, complete)
				}
			case since+1 < oldest:
				// Versions in (since, oldest) wrapped away: must miss.
				if complete {
					t.Fatalf("extra=%d since=%d oldest=%d: wrapped gap reported complete", extra, since, oldest)
				}
			default:
				if !complete {
					t.Fatalf("extra=%d since=%d oldest=%d: provable gap reported incomplete", extra, since, oldest)
				}
				want := int(newest - since)
				if len(entries) != want {
					t.Fatalf("extra=%d since=%d: %d entries, want %d", extra, since, len(entries), want)
				}
				for i, e := range entries {
					if e.Version != since+uint64(i)+1 {
						t.Fatalf("extra=%d since=%d: entry %d has version %d", extra, since, i, e.Version)
					}
				}
			}
		}
	}
}

// TestReplaySparseVersions checks the completeness rule on a version
// stream with gaps (owners may skip versions across restarts): a cursor
// landing inside a published gap is only provable when the buffer still
// reaches back far enough.
func TestReplaySparseVersions(t *testing.T) {
	r := NewReplay(8)
	for _, v := range []uint64{10, 20, 30} {
		r.Append("ch", v, "d", time.Time{})
	}
	// since=10 == oldest: provable (nothing between 10 and 20 was
	// evicted — the buffer holds everything after 10).
	entries, complete := r.From("ch", 10)
	if !complete || fmt.Sprint(entryVersions(entries)) != "[20 30]" {
		t.Fatalf("From(10) = %v complete=%v", entryVersions(entries), complete)
	}
	// since=15: oldest buffered is 10 <= since, so every version > 15
	// the channel ever had is still buffered. Provable.
	entries, complete = r.From("ch", 15)
	if !complete || fmt.Sprint(entryVersions(entries)) != "[20 30]" {
		t.Fatalf("From(15) = %v complete=%v", entryVersions(entries), complete)
	}
	// since=5: versions in (5,10) may have existed before the buffer's
	// history began. Unprovable.
	if _, complete = r.From("ch", 5); complete {
		t.Fatal("From(5) before buffered history should be incomplete")
	}
}

// TestReplayAppendDedup drops duplicate and stale versions — the session
// table sees one update once per delegate batch that reaches this node.
func TestReplayAppendDedup(t *testing.T) {
	r := NewReplay(8)
	r.Append("ch", 3, "v3", time.Time{})
	r.Append("ch", 3, "v3-again", time.Time{})
	r.Append("ch", 2, "v2-late", time.Time{})
	r.Append("ch", 4, "v4", time.Time{})
	entries, complete := r.From("ch", 2)
	if !complete {
		t.Fatal("expected complete")
	}
	if got := fmt.Sprint(entryVersions(entries)); got != "[3 4]" {
		t.Fatalf("entries = %s, want [3 4]", got)
	}
	if entries[0].Diff != "v3" {
		t.Fatalf("duplicate overwrote the original diff: %q", entries[0].Diff)
	}
}

// TestReplayHitMissCounters pins which outcomes count where.
func TestReplayHitMissCounters(t *testing.T) {
	r := NewReplay(2)
	r.From("ch", 0) // empty: miss
	r.Append("ch", 1, "d", time.Time{})
	r.Append("ch", 2, "d", time.Time{})
	r.Append("ch", 3, "d", time.Time{}) // wraps v1 away
	r.From("ch", 2)                     // hit
	r.From("ch", 3)                     // since==newest: hit
	r.From("ch", 0)                     // wrapped gap: miss
	s := r.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Wraps != 1 {
		t.Fatalf("stats = %+v, want hits=2 misses=2 wraps=1", s)
	}
}

// TestReplayConcurrentAppendWhileReplay hammers Append and From on the
// same channels from many goroutines; run under -race, correctness is
// "returned slices are version-ordered and internally consistent".
func TestReplayConcurrentAppendWhileReplay(t *testing.T) {
	r := NewReplay(16)
	channels := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, ch := range channels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := uint64(1); v <= 2000; v++ {
				r.Append(ch, v, "diff", time.Time{})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				ch := channels[n%len(channels)]
				since := r.Newest(ch) / 2
				entries, complete := r.From(ch, since)
				if !complete {
					continue
				}
				for j := 1; j < len(entries); j++ {
					if entries[j].Version <= entries[j-1].Version {
						t.Errorf("unordered replay: %d after %d", entries[j].Version, entries[j-1].Version)
						return
					}
				}
				if len(entries) > 0 && entries[0].Version <= since {
					t.Errorf("replayed version %d <= since %d", entries[0].Version, since)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestReplayRingGrowsOnDemand pins the ring's memory to what a channel
// has seen: a few updates hold a few entries, and a ring that fills
// wraps at the configured capacity as before.
func TestReplayRingGrowsOnDemand(t *testing.T) {
	r := NewReplay(DefaultReplayCap)
	for v := uint64(1); v <= 3; v++ {
		r.Append("ch", v, "d", time.Time{})
	}
	if got := cap(r.channels["ch"].buf); got > 16 {
		t.Fatalf("ring holding 3 entries has capacity %d", got)
	}
	for v := uint64(4); v <= DefaultReplayCap+10; v++ {
		r.Append("ch", v, "d", time.Time{})
	}
	if got := cap(r.channels["ch"].buf); got != DefaultReplayCap {
		t.Fatalf("full ring has capacity %d, want %d", got, DefaultReplayCap)
	}
	if _, complete := r.From("ch", 0); complete {
		t.Fatal("From(0) after a wrap should be incomplete")
	}
	entries, complete := r.From("ch", 10)
	if !complete || len(entries) != DefaultReplayCap {
		t.Fatalf("From(10) = %d entries complete=%v, want %d complete", len(entries), complete, DefaultReplayCap)
	}
	for i, e := range entries {
		if want := uint64(11 + i); e.Version != want {
			t.Fatalf("entry %d has version %d, want %d", i, e.Version, want)
		}
	}
	if got := r.Stats().Wraps; got != 10 {
		t.Fatalf("Wraps = %d, want 10", got)
	}
}
