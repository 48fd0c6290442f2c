package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

var t0 = eventsim.Epoch

// testCloud is a small in-simulation Corona deployment for unit tests.
type testCloud struct {
	sim    *eventsim.Sim
	net    *simnet.Network
	origin *webserver.Origin
	nodes  []*core.Node
	sink   *recordingSink
	notify *recordingNotifier
}

// recordingSink deduplicates detection events per (channel, version),
// keeping the earliest, exactly as the evaluation harness does.
type recordingSink struct {
	mu       sync.Mutex
	earliest map[string]time.Time // "url#version" -> time
}

func newRecordingSink() *recordingSink {
	return &recordingSink{earliest: make(map[string]time.Time)}
}

func (s *recordingSink) UpdateDetected(url string, version uint64, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fmt.Sprintf("%s#%d", url, version)
	if prev, ok := s.earliest[key]; !ok || at.Before(prev) {
		s.earliest[key] = at
	}
}

func (s *recordingSink) detectionOf(url string, version uint64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.earliest[fmt.Sprintf("%s#%d", url, version)]
	return at, ok
}

// recordingNotifier captures IM notifications.
type recordingNotifier struct {
	mu      sync.Mutex
	perUser map[string][]uint64 // client -> versions
	counts  map[string]int      // url -> total notified
}

func newRecordingNotifier() *recordingNotifier {
	return &recordingNotifier{perUser: make(map[string][]uint64), counts: make(map[string]int)}
}

func (r *recordingNotifier) NotifyBatch(clients []string, url string, version uint64, diff string, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range clients {
		r.perUser[c] = append(r.perUser[c], version)
		r.counts[url]++
	}
}

// total reports how many notifications the channel has delivered.
func (r *recordingNotifier) total(url string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[url]
}

// newTestCloud builds n nodes with a converged overlay over simnet.
func newTestCloud(t testing.TB, n int, mutate func(i int, cfg *core.Config)) *testCloud {
	t.Helper()
	tc := &testCloud{
		sim:    eventsim.New(7),
		sink:   newRecordingSink(),
		notify: newRecordingNotifier(),
	}
	tc.net = simnet.New(tc.sim, simnet.FixedLatency(10*time.Millisecond))
	tc.origin = webserver.NewOrigin()
	overlays := tc.net.Ring(pastry.DefaultConfig(), n, tc.sim.RNG("cloud-ids"))
	fetcher := &core.OriginFetcher{Origin: tc.origin, Clock: tc.sim}
	for i, overlay := range overlays {
		cfg := core.DefaultConfig()
		cfg.NodeCount = n
		cfg.PollInterval = 10 * time.Minute
		cfg.MaintenanceInterval = 20 * time.Minute
		cfg.OwnerReplicas = 2
		cfg.Seed = int64(i)
		if mutate != nil {
			mutate(i, &cfg)
		}
		node := core.NewNode(cfg, overlay, tc.sim, fetcher, tc.notify, tc.sink)
		tc.nodes = append(tc.nodes, node)
		node.Start()
	}
	return tc
}

// host adds a channel with a periodic update process.
func (tc *testCloud) host(url string, interval time.Duration) {
	tc.origin.Host(webserver.ChannelConfig{
		URL:       url,
		SizeBytes: 4096,
		Process:   webserver.PeriodicProcess{Origin: t0.Add(time.Minute), Interval: interval},
	})
}

// ownerOf finds the node currently owning the channel.
func (tc *testCloud) ownerOf(url string) *core.Node {
	id := ids.HashString(url)
	for _, n := range tc.nodes {
		if n.Overlay().IsRoot(id) {
			return n
		}
	}
	return nil
}

// pollers counts nodes currently polling the channel.
func (tc *testCloud) pollers(url string) int {
	count := 0
	for _, n := range tc.nodes {
		if _, polling, ok := n.ChannelLevel(url); ok && polling {
			count++
		}
	}
	return count
}

func TestSubscribeReachesOwner(t *testing.T) {
	tc := newTestCloud(t, 16, nil)
	url := "http://feeds.example.net/a.xml"
	tc.host(url, time.Hour)
	tc.nodes[3].Subscribe("alice", url)
	tc.nodes[5].Subscribe("bob", url)
	tc.sim.RunFor(5 * time.Second)

	owner := tc.ownerOf(url)
	if owner == nil {
		t.Fatal("no owner for channel")
	}
	stats := owner.Stats()
	if stats.ChannelsOwned != 1 || stats.SubscriptionsHeld != 2 {
		t.Fatalf("owner stats = %+v, want 1 channel / 2 subscriptions", stats)
	}
	// No other node owns it.
	for _, n := range tc.nodes {
		if n != owner && n.Stats().ChannelsOwned != 0 {
			t.Fatalf("node %v also claims ownership", n.Self())
		}
	}
}

func TestUnsubscribeReducesCount(t *testing.T) {
	tc := newTestCloud(t, 8, nil)
	url := "http://feeds.example.net/u.xml"
	tc.host(url, time.Hour)
	tc.nodes[0].Subscribe("alice", url)
	tc.nodes[1].Subscribe("bob", url)
	tc.sim.RunFor(time.Second)
	tc.nodes[2].Unsubscribe("alice", url)
	tc.sim.RunFor(time.Second)
	owner := tc.ownerOf(url)
	if got := owner.Stats().SubscriptionsHeld; got != 1 {
		t.Fatalf("subscriptions after unsubscribe = %d, want 1", got)
	}
	// Unsubscribing an unknown client is a no-op.
	tc.nodes[2].Unsubscribe("mallory", url)
	tc.sim.RunFor(time.Second)
	if got := owner.Stats().SubscriptionsHeld; got != 1 {
		t.Fatalf("unknown unsubscribe changed count to %d", got)
	}
}

func TestOwnerDetectsUpdatesAndNotifies(t *testing.T) {
	tc := newTestCloud(t, 16, nil)
	url := "http://feeds.example.net/hot.xml"
	tc.host(url, 30*time.Minute)
	tc.nodes[0].Subscribe("alice", url)
	tc.sim.RunFor(4 * time.Hour)

	// Updates occur at +1min, +31min, +61min, ... The owner polls every
	// 10 minutes, so every update must be detected within 10 minutes.
	proc, _ := tc.origin.Process(url)
	for v := uint64(2); v <= 6; v++ {
		at, ok := tc.sink.detectionOf(url, v)
		if !ok {
			t.Fatalf("version %d never detected", v)
		}
		latency := at.Sub(proc.UpdateTime(v))
		if latency < 0 || latency > 10*time.Minute+time.Minute {
			t.Fatalf("version %d detection latency %v outside one poll interval", v, latency)
		}
	}
	tc.notify.mu.Lock()
	aliceVersions := len(tc.notify.perUser["alice"])
	tc.notify.mu.Unlock()
	if aliceVersions < 4 {
		t.Fatalf("alice received %d notifications, want ≥4", aliceVersions)
	}
}

func TestPopularChannelGetsMorePollers(t *testing.T) {
	// A constrained budget: one popular channel among many niche ones.
	// The optimizer must give the popular channel at least as many
	// pollers as any niche channel and more than the typical one.
	tc := newTestCloud(t, 32, func(i int, cfg *core.Config) {
		cfg.OwnerReplicas = 0
	})
	popular := "http://feeds.example.net/popular.xml"
	tc.host(popular, 30*time.Minute)
	niches := make([]string, 30)
	for j := range niches {
		niches[j] = fmt.Sprintf("http://feeds.example.net/niche%02d.xml", j)
		tc.host(niches[j], 30*time.Minute)
		tc.nodes[j%len(tc.nodes)].Subscribe(fmt.Sprintf("loner%d", j), niches[j])
	}
	for i := 0; i < 100; i++ {
		tc.nodes[i%len(tc.nodes)].Subscribe(fmt.Sprintf("u%d", i), popular)
	}
	// Let several maintenance rounds run.
	tc.sim.RunFor(3 * time.Hour)

	pop := tc.pollers(popular)
	nichePollers := make([]int, len(niches))
	maxNiche, sumNiche := 0, 0
	for j, u := range niches {
		nichePollers[j] = tc.pollers(u)
		sumNiche += nichePollers[j]
		if nichePollers[j] > maxNiche {
			maxNiche = nichePollers[j]
		}
	}
	meanNiche := float64(sumNiche) / float64(len(niches))
	if pop < 2 {
		t.Fatalf("popular channel never expanded beyond the owner (pollers=%d)", pop)
	}
	if float64(pop) <= meanNiche {
		t.Fatalf("popular channel has %d pollers, niche mean %.1f; want more for popular", pop, meanNiche)
	}
}

func TestLiteLoadConvergesToBudget(t *testing.T) {
	// Corona-Lite's core promise (Figure 3): total polling load settles
	// near the legacy budget Σqᵢ per polling interval.
	tc := newTestCloud(t, 32, func(i int, cfg *core.Config) {
		cfg.OwnerReplicas = 0
	})
	const channels = 40
	totalSubs := 0
	for j := 0; j < channels; j++ {
		url := fmt.Sprintf("http://feeds.example.net/c%02d.xml", j)
		tc.host(url, time.Hour)
		subs := 1 + (channels-j)/4 // mildly skewed popularity
		for s := 0; s < subs; s++ {
			tc.nodes[(j+s)%len(tc.nodes)].Subscribe(fmt.Sprintf("s%d-%d", j, s), url)
		}
		totalSubs += subs
	}
	// Warm up through several maintenance rounds, then measure.
	tc.sim.RunFor(3 * time.Hour)
	tc.origin.ResetLoad()
	tc.sim.RunFor(2 * time.Hour)
	load := tc.origin.TotalLoad()
	pollInterval := 10 * time.Minute
	perInterval := float64(load.Polls) / (2 * time.Hour.Hours() * float64(time.Hour/pollInterval))
	// Allow overshoot headroom for level granularity (the optimizer is
	// integral) but require the budget actually be used.
	if perInterval > 1.6*float64(totalSubs) {
		t.Fatalf("load %.1f polls/interval far exceeds budget %d", perInterval, totalSubs)
	}
	if perInterval < 0.2*float64(totalSubs) {
		t.Fatalf("load %.1f polls/interval leaves budget %d unused", perInterval, totalSubs)
	}
}

func TestCooperativeDetectionFasterThanSolo(t *testing.T) {
	tc := newTestCloud(t, 32, func(i int, cfg *core.Config) {
		cfg.OwnerReplicas = 0
	})
	url := "http://feeds.example.net/fast.xml"
	tc.host(url, 15*time.Minute)
	for i := 0; i < 300; i++ {
		tc.nodes[i%len(tc.nodes)].Subscribe(fmt.Sprintf("c%d", i), url)
	}
	// Warm up: two maintenance rounds to expand the wedge.
	tc.sim.RunFor(90 * time.Minute)
	warmupEnd := tc.sim.Now()

	tc.sim.RunFor(4 * time.Hour)
	proc, _ := tc.origin.Process(url)
	var total time.Duration
	var count int
	for v := uint64(1); ; v++ {
		ut := proc.UpdateTime(v)
		if ut.After(tc.sim.Now().Add(-20 * time.Minute)) {
			break
		}
		if ut.Before(warmupEnd) {
			continue
		}
		at, ok := tc.sink.detectionOf(url, v)
		if !ok {
			continue
		}
		total += at.Sub(ut)
		count++
	}
	if count < 5 {
		t.Fatalf("too few measured updates: %d", count)
	}
	mean := total / time.Duration(count)
	// Solo polling at 10 min averages 5 min; cooperation must beat it
	// clearly.
	if mean > 4*time.Minute {
		t.Fatalf("cooperative mean detection %v, want well under solo 5m", mean)
	}
}

func TestWedgeMembershipRespected(t *testing.T) {
	tc := newTestCloud(t, 32, func(i int, cfg *core.Config) {
		cfg.OwnerReplicas = 0
	})
	url := "http://feeds.example.net/wedge.xml"
	tc.host(url, 20*time.Minute)
	for i := 0; i < 500; i++ {
		tc.nodes[i%len(tc.nodes)].Subscribe(fmt.Sprintf("w%d", i), url)
	}
	tc.sim.RunFor(3 * time.Hour)

	id := ids.HashString(url)
	base := tc.nodes[0].Overlay().Base()
	for _, n := range tc.nodes {
		level, polling, ok := n.ChannelLevel(url)
		if !ok || !polling {
			continue
		}
		isOwner := n.Overlay().IsRoot(id)
		if !isOwner && !base.InWedge(n.Self().ID, id, level) {
			t.Fatalf("node %v polls outside its wedge (level %d)", n.Self(), level)
		}
	}
}

func TestUpdateDisseminationReachesWedge(t *testing.T) {
	tc := newTestCloud(t, 32, func(i int, cfg *core.Config) {
		cfg.OwnerReplicas = 0
	})
	url := "http://feeds.example.net/diss.xml"
	tc.host(url, 25*time.Minute)
	for i := 0; i < 400; i++ {
		tc.nodes[i%len(tc.nodes)].Subscribe(fmt.Sprintf("d%d", i), url)
	}
	tc.sim.RunFor(3 * time.Hour)

	// Every polling node must have received/learned recent versions: the
	// sum of their "received" plus "detected" counters must cover all
	// pollers (no poller left permanently stale).
	var received, detected uint64
	for _, n := range tc.nodes {
		s := n.Stats()
		received += s.UpdatesReceived
		detected += s.UpdatesDetected
	}
	if detected == 0 {
		t.Fatal("no updates detected at all")
	}
	if received == 0 {
		t.Fatal("updates never disseminated to other wedge members")
	}
}

func TestOwnerFailoverPreservesSubscriptions(t *testing.T) {
	tc := newTestCloud(t, 16, nil)
	url := "http://feeds.example.net/failover.xml"
	tc.host(url, 30*time.Minute)
	tc.nodes[0].Subscribe("alice", url)
	tc.nodes[1].Subscribe("bob", url)
	tc.sim.RunFor(time.Minute)

	owner := tc.ownerOf(url)
	if owner == nil {
		t.Fatal("no owner")
	}
	tc.net.Crash(owner.Self().Endpoint)
	owner.Stop()
	// Let maintenance traffic hit the dead node and trigger repair plus
	// replica promotion.
	tc.sim.RunFor(2 * time.Hour)

	var newOwner *core.Node
	for _, n := range tc.nodes {
		if n == owner {
			continue
		}
		if s := n.Stats(); s.ChannelsOwned == 1 {
			newOwner = n
			break
		}
	}
	if newOwner == nil {
		t.Fatal("no replica promoted to owner after crash")
	}
	if got := newOwner.Stats().SubscriptionsHeld; got != 2 {
		t.Fatalf("promoted owner holds %d subscriptions, want 2", got)
	}
}

func TestStopHaltsPolling(t *testing.T) {
	tc := newTestCloud(t, 8, nil)
	url := "http://feeds.example.net/stop.xml"
	tc.host(url, time.Hour)
	tc.nodes[0].Subscribe("x", url)
	tc.sim.RunFor(time.Minute)
	owner := tc.ownerOf(url)
	owner.Stop()
	before, _ := tc.origin.Load(url)
	tc.sim.RunFor(2 * time.Hour)
	after, _ := tc.origin.Load(url)
	if after.Polls != before.Polls {
		t.Fatalf("stopped owner still polled (%d -> %d)", before.Polls, after.Polls)
	}
}
