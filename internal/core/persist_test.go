package core_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/store"
	"corona/internal/webserver"
)

// TestLastUnsubscribeDemotesAndReplicates covers the far-less-tested
// subs.remove path end to end: removing the final subscriber must empty
// the replicas (no stale identities a later promotion could resurrect)
// and demote the channel's polling level bookkeeping — with q back at
// zero the optimizer walks the wedge back toward owner-only polling.
func TestLastUnsubscribeDemotesAndReplicates(t *testing.T) {
	tc := newTestCloud(t, 32, nil)
	popular := "http://feeds.example.net/popular.xml"
	tc.host(popular, 30*time.Minute)
	// Background channels keep the optimization budget contended, so the
	// popular channel's level genuinely reflects its subscribers.
	for j := 0; j < 20; j++ {
		url := fmt.Sprintf("http://feeds.example.net/bg%02d.xml", j)
		tc.host(url, time.Hour)
		tc.nodes[j%len(tc.nodes)].Subscribe(fmt.Sprintf("loner%d", j), url)
	}
	const subs = 100
	for i := 0; i < subs; i++ {
		tc.nodes[i%len(tc.nodes)].Subscribe(fmt.Sprintf("u%d", i), popular)
	}
	tc.sim.RunFor(3 * time.Hour)

	owner := tc.ownerOf(popular)
	busy, ok := owner.Channel(popular)
	if !ok || !busy.Owner {
		t.Fatalf("owner state missing: %+v", busy)
	}
	if busy.Subscribers != subs {
		t.Fatalf("owner holds %d subscribers, want %d", busy.Subscribers, subs)
	}
	busyPollers := tc.pollers(popular)
	if busyPollers < 2 {
		t.Fatalf("popular channel never expanded beyond the owner (pollers=%d)", busyPollers)
	}

	for i := 0; i < subs; i++ {
		tc.nodes[i%len(tc.nodes)].Unsubscribe(fmt.Sprintf("u%d", i), popular)
	}
	tc.sim.RunFor(4 * time.Hour)

	idle, _ := owner.Channel(popular)
	if idle.Subscribers != 0 {
		t.Fatalf("owner still holds %d subscribers after last unsubscribe", idle.Subscribers)
	}
	if idle.Level < busy.Level {
		t.Fatalf("level %d after emptying, was %d while busy; want demotion toward owner-only", idle.Level, busy.Level)
	}
	if after := tc.pollers(popular); after >= busyPollers {
		t.Fatalf("pollers %d after emptying, %d while busy; want the wedge to shrink", after, busyPollers)
	}
	// The emptied channel replicated: every replica dropped both the
	// count and the identity set.
	sawReplica := false
	for _, n := range tc.nodes {
		info, ok := n.Channel(popular)
		if !ok || !info.Replica {
			continue
		}
		sawReplica = true
		if info.Subscribers != 0 {
			t.Fatalf("replica still holds %d subscribers: %+v", info.Subscribers, info)
		}
	}
	if !sawReplica {
		t.Fatal("no replica held the channel (OwnerReplicas=2)")
	}
}

// TestStateSinkRecordsAndRecovers drives the whole durability loop in
// simulation: an owner journals its mutations through a real store, the
// store is hard-aborted (crash), and a fresh node incarnation restores
// the image, reconciles ownership, and delivers the next update to the
// recovered subscribers — no re-subscription anywhere.
func TestStateSinkRecordsAndRecovers(t *testing.T) {
	url := "http://feeds.example.net/durable.xml"
	tc := newTestCloud(t, 16, nil)
	owner := tc.ownerOf(url)
	if owner == nil {
		t.Fatal("no owner")
	}
	dir := t.TempDir()
	st, recovered, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh store recovered %v", recovered)
	}
	owner.SetStateSink(st)

	// Subscribe through the owner itself so the clients' entry node is
	// the identity the restarted incarnation will reclaim.
	tc.host(url, 48*time.Hour) // effectively static during phase one
	owner.Subscribe("alice", url)
	owner.Subscribe("bob", url)
	tc.sim.RunFor(2 * time.Hour) // maintenance rounds journal meta too
	live, _ := owner.Channel(url)
	if !live.Owner || live.Subscribers != 2 {
		t.Fatalf("phase-one owner state: %+v", live)
	}
	st.Abort() // crash: no graceful flush (CommitWindow<0 already synced)

	// The store alone must reproduce the owner's durable state.
	st2, recovered, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var image *store.Channel
	for i := range recovered {
		if recovered[i].URL == url {
			image = &recovered[i]
		}
	}
	if image == nil || !image.Owner || len(image.Subs) != 2 {
		t.Fatalf("recovered image = %+v", image)
	}

	// Phase two: a fresh single-node incarnation with the dead owner's
	// overlay identity, a fresh clock, and a now-changing origin.
	sim := eventsim.New(99)
	net := simnet.New(sim, simnet.FixedLatency(time.Millisecond))
	origin := webserver.NewOrigin()
	origin.Host(webserver.ChannelConfig{
		URL:       url,
		SizeBytes: 4096,
		Process:   webserver.PeriodicProcess{Origin: eventsim.Epoch.Add(time.Minute), Interval: 10 * time.Minute},
	})
	self := owner.Self()
	overlay := net.Node(pastry.DefaultConfig(), self)
	overlay.Bootstrap()
	cfg := core.DefaultConfig()
	cfg.NodeCount = 1
	cfg.PollInterval = 10 * time.Minute
	cfg.MaintenanceInterval = 20 * time.Minute
	notify := newRecordingNotifier()
	node := core.NewNode(cfg, overlay, sim, &core.OriginFetcher{Origin: origin, Clock: sim}, notify, nil)
	node.RestoreChannels(recovered)
	node.Start()
	node.ReconcileRecovered()

	info, ok := node.Channel(url)
	if !ok || !info.Owner || !info.Polling || info.Subscribers != 2 {
		t.Fatalf("reconciled state = %+v, want owning+polling with 2 subscribers", info)
	}
	if info.LastVersion != live.LastVersion {
		t.Fatalf("recovered version %d, want %d", info.LastVersion, live.LastVersion)
	}

	sim.RunFor(2 * time.Hour)
	notify.mu.Lock()
	alice, bob := len(notify.perUser["alice"]), len(notify.perUser["bob"])
	notify.mu.Unlock()
	if alice == 0 || bob == 0 {
		t.Fatalf("recovered subscribers missed updates: alice=%d bob=%d", alice, bob)
	}
}

// TestResubscribeRefreshesEntryDurably pins the entry-refresh path: a
// client re-subscribing through a different entry node changes where its
// notifications route, and that change must reach both the replicas and
// the durable store — otherwise a restarted owner would chase the
// client's previous, possibly dead, entry.
func TestResubscribeRefreshesEntryDurably(t *testing.T) {
	url := "http://feeds.example.net/refresh.xml"
	tc := newTestCloud(t, 8, nil)
	tc.host(url, 48*time.Hour)
	owner := tc.ownerOf(url)
	dir := t.TempDir()
	st, _, err := store.Open(store.Options{Dir: dir, CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	owner.SetStateSink(st)

	var first, second *core.Node
	for _, n := range tc.nodes {
		if n == owner {
			continue
		}
		if first == nil {
			first = n
		} else if second == nil {
			second = n
			break
		}
	}
	first.Subscribe("alice", url)
	tc.sim.RunFor(time.Second)
	second.Subscribe("alice", url)
	tc.sim.RunFor(time.Second)

	var image *store.Channel
	for _, ch := range st.Channels() {
		if ch.URL == url {
			c := ch
			image = &c
		}
	}
	if image == nil || len(image.Subs) != 1 {
		t.Fatalf("durable image = %+v", image)
	}
	if got, want := image.Subs[0].EntryEndpoint, second.Self().Endpoint; got != want {
		t.Fatalf("durable entry = %s, want refreshed entry %s", got, want)
	}
	// The refresh also re-replicated: any replica holding identities
	// must agree on the new entry.
	for _, n := range tc.nodes {
		if info, ok := n.Channel(url); ok && info.Replica && info.Subscribers != 1 {
			t.Fatalf("replica out of sync after entry refresh: %+v", info)
		}
	}
}

// TestEmptiedChannelClearsReplicaStore pins the durable side of the
// emptied-channel replicate push: after the last unsubscribe, every
// node's durable image — replicas included — must hold zero subscribers,
// or a replica restart would resurrect the unsubscribed client.
func TestEmptiedChannelClearsReplicaStore(t *testing.T) {
	url := "http://feeds.example.net/emptied.xml"
	tc := newTestCloud(t, 8, nil)
	tc.host(url, 48*time.Hour)
	stores := make([]*store.Store, len(tc.nodes))
	for i, n := range tc.nodes {
		st, _, err := store.Open(store.Options{Dir: t.TempDir(), CommitWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stores[i] = st
		n.SetStateSink(st)
	}
	tc.nodes[1].Subscribe("alice", url)
	tc.sim.RunFor(time.Second)
	tc.nodes[1].Unsubscribe("alice", url)
	tc.sim.RunFor(time.Second)

	sawDurableChannel := false
	for i, st := range stores {
		for _, ch := range st.Channels() {
			if ch.URL != url {
				continue
			}
			sawDurableChannel = true
			if len(ch.Subs) != 0 || ch.Count != 0 {
				t.Fatalf("node %d durable image still holds subscribers: %+v", i, ch)
			}
		}
	}
	if !sawDurableChannel {
		t.Fatal("no node journaled the channel at all")
	}
}

// TestReconcileHandsOffMovedChannels covers the other restart outcome:
// the ring moved on and another node now roots the channel. The restarted
// node must not claim ownership; it re-injects its durable subscriptions
// so the new owner holds them.
func TestReconcileHandsOffMovedChannels(t *testing.T) {
	url := "http://feeds.example.net/moved.xml"
	tc := newTestCloud(t, 16, nil)
	tc.host(url, 48*time.Hour)
	owner := tc.ownerOf(url)

	// A durable image claiming ownership, restored into a node that is
	// NOT the root for the channel.
	var notRoot *core.Node
	for _, n := range tc.nodes {
		if n != owner {
			notRoot = n
			break
		}
	}
	entry := notRoot.Self()
	image := []store.Channel{{
		URL: url, Owner: true, Level: 1, Epoch: 3, SizeBytes: 4096,
		Subs: []store.Sub{{Client: "carol", EntryID: entry.ID, EntryEndpoint: entry.Endpoint}},
	}}
	notRoot.RestoreChannels(image)
	notRoot.ReconcileRecovered()
	tc.sim.RunFor(time.Minute)

	if info, ok := notRoot.Channel(url); ok && info.Owner {
		t.Fatalf("non-root claimed ownership after restore: %+v", info)
	}
	got, ok := owner.Channel(url)
	if !ok || !got.Owner || got.Subscribers != 1 {
		t.Fatalf("current owner did not receive the handed-off subscription: %+v", got)
	}
}

// countingSink passes records through to a store, counting the ones
// offered for one channel.
type countingSink struct {
	st      *store.Store
	url     string
	offered int
}

func (s *countingSink) StateChanged(rec store.Record) {
	if rec.URL == s.url {
		s.offered++
	}
	s.st.StateChanged(rec)
}

// TestReplicaHeartbeatsLeaveWALUnchanged pins the replica's journal on
// the path that runs most often: every maintenance round the owner
// heartbeats a quiescent channel's epoch, Seq and digest. Once the
// subscriptions have landed, heartbeats that match the replica's state
// must neither ask for a resync nor grow the replica's WAL, and a
// restart must still recover the replicated subscriber set and owner
// epoch.
func TestReplicaHeartbeatsLeaveWALUnchanged(t *testing.T) {
	url := "http://feeds.example.net/heartbeat.xml"
	tc := newTestCloud(t, 8, nil)
	tc.host(url, 48*time.Hour) // quiescent: no version moves in the run
	owner := tc.ownerOf(url)
	dirs := make([]string, len(tc.nodes))
	sinks := make([]*countingSink, len(tc.nodes))
	for i, n := range tc.nodes {
		dirs[i] = t.TempDir()
		st, _, err := store.Open(store.Options{Dir: dirs[i], CommitWindow: -1})
		if err != nil {
			t.Fatal(err)
		}
		sinks[i] = &countingSink{st: st, url: url}
		n.SetStateSink(sinks[i])
	}
	defer func() {
		for _, s := range sinks {
			s.st.Close()
		}
	}()
	owner.Subscribe("alice", url)
	owner.Subscribe("bob", url)
	tc.sim.RunFor(time.Hour) // subscription pushes, level settling, first heartbeats

	replica := -1
	for i, n := range tc.nodes {
		if info, ok := n.Channel(url); ok && info.Replica && !info.Owner {
			replica = i
			break
		}
	}
	if replica < 0 {
		t.Fatal("no replica holds the channel")
	}
	sink := sinks[replica]
	walBefore := sink.st.Stats().WALBytes
	beatsBefore := owner.Stats().Replication.Heartbeats
	resyncsBefore := tc.nodes[replica].Stats().Replication.Resyncs

	const heartbeats = 5
	tc.sim.RunFor(heartbeats * 20 * time.Minute) // one heartbeat per maintenance round
	if got := owner.Stats().Replication.Heartbeats - beatsBefore; got < heartbeats {
		t.Fatalf("owner sent %d heartbeats over %d rounds, want at least %d", got, heartbeats, heartbeats)
	}
	if got := tc.nodes[replica].Stats().Replication.Resyncs - resyncsBefore; got != 0 {
		t.Fatalf("replica asked for %d resyncs over %d matching heartbeats, want none", got, heartbeats)
	}
	if got := sink.st.Stats().WALBytes; got != walBefore {
		t.Fatalf("replica WAL grew from %d to %d bytes over %d identical heartbeats", walBefore, got, heartbeats)
	}

	live, _ := tc.nodes[replica].Channel(url)
	if err := sink.st.Close(); err != nil {
		t.Fatal(err)
	}
	st, recovered, err := store.Open(store.Options{Dir: dirs[replica], CommitWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	sink.st = st
	var image *store.Channel
	for i := range recovered {
		if recovered[i].URL == url {
			image = &recovered[i]
		}
	}
	if image == nil || !image.Replica || image.OwnerEpoch != live.OwnerEpoch {
		t.Fatalf("recovered image %+v, want a replica at owner epoch %d", image, live.OwnerEpoch)
	}
	var clients []string
	for _, s := range image.Subs {
		clients = append(clients, s.Client)
	}
	sort.Strings(clients)
	if fmt.Sprint(clients) != "[alice bob]" {
		t.Fatalf("recovered subscribers %v, want [alice bob]", clients)
	}
}
