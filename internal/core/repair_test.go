package core

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/store"
)

// The repair-path tests break a replica's copy of one channel in each
// way the delta protocol must survive, then require the replica to hold
// the owner's exact subscriber set and Seq within one maintenance round
// plus one round trip: the next heartbeat exposes the fault, and one
// resync request and its full push repair it.

const (
	repairURL   = "http://feeds.example.net/repair.xml"
	repairRound = 20 * time.Minute
	// repairLatency is newReplRing's one-way link latency.
	repairLatency = 5 * time.Millisecond
	// repairDeadline is one round plus the heartbeat's flight and the
	// resync round trip.
	repairDeadline = repairRound + 3*repairLatency
)

// mirrorGap describes how a replica's copy of url differs from the
// owner's, or returns "" when it mirrors the owner exactly.
func mirrorGap(owner, replica *Node, url string) string {
	owner.mu.Lock()
	och, ok := owner.channels[ids.HashString(url)]
	var oseq, oepoch uint64
	var oids map[string]pastry.Addr
	if ok {
		oseq, oepoch, oids = och.replSeq, och.ownerEpoch, maps.Clone(och.subs.ids)
	}
	owner.mu.Unlock()
	if !ok || !och.isOwner {
		return "owner does not own the channel"
	}
	replica.mu.Lock()
	defer replica.mu.Unlock()
	ch, ok := replica.channels[ids.HashString(url)]
	switch {
	case !ok:
		return "replica does not know the channel"
	case !ch.isReplica || ch.isOwner:
		return fmt.Sprintf("replica=%v owner=%v", ch.isReplica, ch.isOwner)
	case ch.ownerEpoch != oepoch:
		return fmt.Sprintf("owner epoch %d, want %d", ch.ownerEpoch, oepoch)
	case ch.replSeq != oseq:
		return fmt.Sprintf("seq %d, want %d", ch.replSeq, oseq)
	case !maps.Equal(ch.subs.ids, oids):
		return fmt.Sprintf("subscribers %v, want %v", ch.subs.ids, oids)
	case ch.subs.sum != och.subs.sum:
		return "digest differs from the owner's"
	}
	return ""
}

// settledRing builds a six-node ring whose repairURL owner holds three
// subscribers mirrored on both replicas.
func settledRing(t *testing.T) (r *replRing, owner *Node, replicas []*Node) {
	t.Helper()
	r = newReplRing(t, 6, repairRound)
	owner = r.owner(repairURL)
	for i, c := range []string{"alice", "bob", "carol"} {
		r.nodes[i].Subscribe(c, repairURL)
	}
	r.sim.RunFor(time.Hour)
	replicas = r.replicasOf(owner)
	for _, rep := range replicas {
		if gap := mirrorGap(owner, rep, repairURL); gap != "" {
			t.Fatalf("replica %s before the fault: %s", rep.Self().Endpoint, gap)
		}
	}
	return r, owner, replicas
}

// requireRepaired runs the ring for the repair deadline and requires the
// replica to mirror the owner again.
func requireRepaired(t *testing.T, r *replRing, owner, replica *Node) {
	t.Helper()
	r.sim.RunFor(repairDeadline)
	if gap := mirrorGap(owner, replica, repairURL); gap != "" {
		t.Fatalf("replica not repaired within one round plus one round trip: %s", gap)
	}
}

func TestReplicaRepairsDroppedDelta(t *testing.T) {
	r, owner, replicas := settledRing(t)
	replica := replicas[0]
	r.net.SetLinkFault(owner.Self().Endpoint, replica.Self().Endpoint, simnet.LinkFault{DropRate: 1})
	owner.Subscribe("dave", repairURL)
	r.sim.RunFor(time.Second)
	r.net.ClearLinkFaults()
	if mirrorGap(owner, replica, repairURL) == "" {
		t.Fatal("the dropped delta reached the replica anyway")
	}
	if gap := mirrorGap(owner, replicas[1], repairURL); gap != "" {
		t.Fatalf("the other replica missed the delta: %s", gap)
	}
	requireRepaired(t, r, owner, replica)
}

func TestReplicaRepairsReorderedDeltas(t *testing.T) {
	r, owner, replicas := settledRing(t)
	replica := replicas[0]
	resyncs := replica.Stats().Replication.Resyncs
	// Hold the first delta back so the second overtakes it.
	r.net.SetLinkFault(owner.Self().Endpoint, replica.Self().Endpoint, simnet.LinkFault{ExtraLatency: 100 * time.Millisecond})
	owner.Subscribe("dave", repairURL)
	r.net.ClearLinkFaults()
	owner.Unsubscribe("alice", repairURL)
	r.sim.RunFor(time.Second)
	if got := replica.Stats().Replication.Resyncs - resyncs; got != 1 {
		t.Fatalf("replica asked for %d resyncs after a reorder, want 1", got)
	}
	// The gap was repaired by the resync alone, before any heartbeat.
	if gap := mirrorGap(owner, replica, repairURL); gap != "" {
		t.Fatalf("replica after the resync: %s", gap)
	}
	requireRepaired(t, r, owner, replica)
}

func TestReplicaRepairsPlantedDigestMismatch(t *testing.T) {
	r, owner, replicas := settledRing(t)
	replica := replicas[1]
	// Corrupt the copy without touching its Seq: only the digest can tell.
	replica.mu.Lock()
	replica.channels[ids.HashString(repairURL)].subs.add("mallory", replica.Self())
	replica.mu.Unlock()
	requireRepaired(t, r, owner, replica)
}

func TestReplicaRestartedFromStaleImageRepairs(t *testing.T) {
	r, owner, replicas := settledRing(t)
	old := replicas[0]
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	old.SetStateSink(st)
	// The sink attaches after the replica settled: journal its current
	// image so the restart has one to recover.
	old.mu.Lock()
	old.emitMetaLocked(old.channels[ids.HashString(repairURL)], true)
	old.mu.Unlock()

	// Crash the replica; the owner keeps changing the set meanwhile.
	old.Stop()
	st.Abort()
	r.net.Crash(old.Self().Endpoint)
	owner.Subscribe("dave", repairURL)
	owner.Subscribe("erin", repairURL)
	r.sim.RunFor(time.Hour)

	// Restart it from the stale image under the same identity.
	st2, image, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r.net.Restart(old.Self().Endpoint)
	overlay := r.net.Node(old.Self())
	restarted := NewNode(old.cfg, overlay, r.sim, &OriginFetcher{}, nil, nil)
	restarted.SetStateSink(st2)
	restarted.RestoreChannels(image)
	if err := overlay.Join(owner.Self()); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(time.Second)
	if !overlay.Joined() {
		t.Fatal("restarted replica never rejoined")
	}
	restarted.Start()
	restarted.ReconcileRecovered()
	requireRepaired(t, r, owner, restarted)
	if info, _ := restarted.Channel(repairURL); info.Subscribers != 5 {
		t.Fatalf("restarted replica holds %d subscribers, want 5", info.Subscribers)
	}
}

func TestJoinedNodeBecomesReplica(t *testing.T) {
	r, owner, _ := settledRing(t)
	// A new identifier right beside the owner, on the side away from the
	// channel, so it joins the owner's replica set without taking the
	// channel over.
	chID := ids.HashString(repairURL)
	var one ids.ID
	one[len(one)-1] = 1
	id := owner.Self().ID.Add(one)
	if id.Distance(chID).Cmp(owner.Self().ID.Distance(chID)) < 0 {
		id = owner.Self().ID.Sub(one)
	}
	const name = "sim://joined"
	overlay := r.net.Node(pastry.Addr{ID: id, Endpoint: name})
	joined := NewNode(owner.cfg, overlay, r.sim, &OriginFetcher{}, nil, nil)
	if err := overlay.Join(r.nodes[0].Self()); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(time.Second)
	if !overlay.Joined() {
		t.Fatal("new node never joined")
	}
	joined.Start()
	if nb := owner.overlay.Neighbors(owner.cfg.OwnerReplicas); len(nb) == 0 || nb[0].ID != id {
		t.Fatalf("joined node is not the owner's nearest neighbor: %v", nb)
	}
	requireRepaired(t, r, owner, joined)
}

// TestSteadyStateSendsOneHeartbeatPerChunk pins the quiescent cost of
// replication: with no subscription change, each node sends each
// replica-set neighbor ⌈channels it roots / replBeatCap⌉ heartbeats per
// round, and nothing else — no full push, no delta, no resync.
func TestSteadyStateSendsOneHeartbeatPerChunk(t *testing.T) {
	r := newReplRing(t, 4, repairRound)
	const channels = 1400
	for i := 0; i < channels; i++ {
		r.nodes[i%len(r.nodes)].Subscribe("c", fmt.Sprintf("http://feeds.example.net/steady/%04d.xml", i))
	}
	r.sim.RunFor(3 * repairRound)
	before := make([]ReplicationStats, len(r.nodes))
	for i, n := range r.nodes {
		before[i] = n.Stats().Replication
	}
	r.wire.reset()
	r.sim.RunFor(repairRound) // every node ticks exactly once

	chunked := false
	for i, n := range r.nodes {
		rooted := 0
		n.mu.Lock()
		for _, ch := range n.channels {
			if ch.isOwner && n.overlay.IsRoot(ch.id) {
				rooted++
			}
		}
		n.mu.Unlock()
		want := (rooted + replBeatCap - 1) / replBeatCap
		chunked = chunked || want > 1
		for _, nb := range n.overlay.Neighbors(n.cfg.OwnerReplicas) {
			if got := r.wire.count(msgReplBeat, n.Self().Endpoint, nb.Endpoint); got != want {
				t.Errorf("node %d roots %d channels and sent %s %d heartbeats in one round, want %d",
					i, rooted, nb.Endpoint, got, want)
			}
		}
		got := n.Stats().Replication
		if got.FullPushes != before[i].FullPushes || got.Deltas != before[i].Deltas || got.Resyncs != before[i].Resyncs {
			t.Errorf("node %d sent replication beyond heartbeats at steady state: %+v, before %+v", i, got, before[i])
		}
	}
	if !chunked {
		t.Fatal("no node roots more than one heartbeat's worth of channels; the chunking went untested")
	}
}

// recordingTransport keeps every message sent through it, per
// destination, in send order.
type recordingTransport struct {
	mu   sync.Mutex
	sent map[string][]pastry.Message
}

func (rt *recordingTransport) Send(to pastry.Addr, msg pastry.Message) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.sent[to.Endpoint] = append(rt.sent[to.Endpoint], msg)
	return nil
}

// TestConcurrentChangesLeaveInSeqOrder drives one owner's subscribe
// handler from many goroutines at once, as netwire's per-connection
// readers do, and requires each replica to be sent that channel's
// deltas in exactly Seq order with no gap: the ordered outbox, not the
// handlers' scheduling, decides the wire order.
func TestConcurrentChangesLeaveInSeqOrder(t *testing.T) {
	sim := eventsim.New(5)
	rng := sim.RNG("ids")
	transports := make([]*recordingTransport, 3)
	overlays := make([]*pastry.Node, 3)
	for i := range overlays {
		transports[i] = &recordingTransport{sent: make(map[string][]pastry.Message)}
		addr := pastry.Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("rec://%d", i)}
		overlays[i] = pastry.NewNode(addr, transports[i], sim)
	}
	pastry.BuildStaticOverlay(overlays)
	var owner *Node
	var rec *recordingTransport
	for i, overlay := range overlays {
		if overlay.IsRoot(ids.HashString(repairURL)) {
			cfg := DefaultConfig()
			cfg.NodeCount = len(overlays)
			cfg.OwnerReplicas = 2
			owner, rec = NewNode(cfg, overlay, sim, &OriginFetcher{}, nil, nil), transports[i]
		}
	}
	subscribe := func(client string) {
		owner.handleSubscribe(pastry.Message{Payload: &subscribeMsg{URL: repairURL, Client: client, Entry: owner.Self()}})
	}
	subscribe("first") // promotes the owner: a full push, not a delta

	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				subscribe(fmt.Sprintf("w%d-%03d", w, i))
			}
		}(w)
	}
	wg.Wait()

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.sent) != 2 {
		t.Fatalf("owner replicated to %d nodes, want 2", len(rec.sent))
	}
	for to, msgs := range rec.sent {
		var seq uint64
		for _, m := range msgs {
			d, ok := m.Payload.(*replDeltaMsg)
			if !ok {
				continue
			}
			if d.Seq != seq+1 {
				t.Fatalf("%s got delta Seq %d after %d", to, d.Seq, seq)
			}
			seq = d.Seq
		}
		if seq != workers*each {
			t.Fatalf("%s got deltas up to Seq %d, want %d", to, seq, workers*each)
		}
	}
}
