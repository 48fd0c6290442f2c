package core

import (
	"testing"
	"time"

	"corona/internal/ids"
)

// TestSubscribeFromLiveEntryRefreshesLease pins the subscribe-time lease
// assert: an owner holds the zero-time expiry mark a dead entry node
// leaves for its client, and the client then re-subscribes through a
// live node (the SDK's failover replay). The next lease sweep must leave
// the entry at that live node instead of re-pointing it at a fallback.
func TestSubscribeFromLiveEntryRefreshesLease(t *testing.T) {
	r := newReplRing(t, 8, 1000*time.Hour) // no maintain pass runs by itself
	url := "http://feeds.example.net/resubscribe.xml"
	owner := r.owner(url)
	owner.cfg.LeaseTTL = time.Hour
	var entries []*Node
	for _, n := range r.nodes {
		if n != owner {
			entries = append(entries, n)
		}
	}
	entries[0].Subscribe("alice", url)
	r.sim.RunFor(time.Second)

	// The old entry died: its peer fault left the expiry mark.
	owner.mu.Lock()
	ch := owner.channels[ids.HashString(url)]
	ch.leases = map[string]time.Time{"alice": {}}
	owner.mu.Unlock()

	live := entries[1]
	live.Subscribe("alice", url)
	r.sim.RunFor(time.Second)
	owner.leaseSweep()

	owner.mu.Lock()
	entry, mark := ch.subs.ids["alice"], ch.leases["alice"]
	owner.mu.Unlock()
	if entry.ID != live.Self().ID {
		t.Fatalf("sweep re-pointed alice at %s, want the live entry %s she re-subscribed through", entry.Endpoint, live.Self().Endpoint)
	}
	if mark.IsZero() {
		t.Fatal("the subscribe left alice's expiry mark in place")
	}
	if got := owner.Stats().LeaseReroutes; got != 0 {
		t.Fatalf("owner counted %d lease re-routes", got)
	}
}
