package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/store"
)

// journal records the state changes a node emits.
type journal struct {
	mu   sync.Mutex
	recs []store.Record
}

func (j *journal) StateChanged(rec store.Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, rec)
}

// last returns the most recent record.
func (j *journal) last() store.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recs[len(j.recs)-1]
}

// TestReplicatePushKeepsEqualSubscriberSet pins the replica side of the
// full push (claims, promotions, resync answers): a push naming the
// subscriber set the replica already holds keeps its map, a push that
// changes the set replaces it, and both journal the whole pushed set.
func TestReplicatePushKeepsEqualSubscriberSet(t *testing.T) {
	const url = "http://feeds.example.net/replicated.xml"
	sim := eventsim.New(1)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	overlays := net.Ring(2, sim.RNG("ids"))
	var owner, replica *Node
	for i, overlay := range overlays {
		cfg := DefaultConfig()
		cfg.NodeCount = len(overlays)
		cfg.PollInterval = 1000 * time.Hour
		cfg.Seed = int64(i)
		n := NewNode(cfg, overlay, sim, &OriginFetcher{}, nil, nil)
		n.Start()
		if overlay.IsRoot(ids.HashString(url)) {
			owner = n
		} else {
			replica = n
		}
	}
	for _, client := range []string{"alice", "bob"} {
		if err := owner.Subscribe(client, url); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(time.Minute)
	j := &journal{}
	replica.SetStateSink(j)

	held := func() map[string]pastry.Addr {
		replica.mu.Lock()
		defer replica.mu.Unlock()
		return replica.getChannel(url).subs.ids
	}
	push := func() {
		owner.mu.Lock()
		rep := owner.buildReplicateLocked(owner.getChannel(url))
		owner.mu.Unlock()
		replica.handleReplicate(pastry.Message{From: owner.Self(), Payload: rep})
	}
	journaled := func() []string {
		var clients []string
		for _, s := range j.last().Subs {
			clients = append(clients, s.Client)
		}
		return clients
	}

	before := held()
	if len(before) != 2 {
		t.Fatalf("replica holds %v before the push, want alice and bob", before)
	}
	push()
	if after := held(); reflect.ValueOf(after).Pointer() != reflect.ValueOf(before).Pointer() {
		t.Fatal("an equal push rebuilt the replica's subscriber map")
	}
	if rec := j.last(); rec.Op != store.OpMeta || !rec.ReplaceSubs || !slices.Equal(journaled(), []string{"alice", "bob"}) {
		t.Fatalf("equal push journaled %+v, want the whole set", rec)
	}

	if err := owner.Subscribe("carol", url); err != nil {
		t.Fatal(err)
	}
	push()
	after := held()
	if reflect.ValueOf(after).Pointer() == reflect.ValueOf(before).Pointer() || len(after) != 3 {
		t.Fatalf("a changed push left the replica holding %v", after)
	}
	if _, ok := after["carol"]; !ok {
		t.Fatalf("replica map %v lacks the new subscriber", after)
	}
	if rec := j.last(); !rec.ReplaceSubs || !slices.Equal(journaled(), []string{"alice", "bob", "carol"}) {
		t.Fatalf("changed push journaled %+v, want alice, bob and carol", rec)
	}
}
