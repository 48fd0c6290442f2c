package corona

import (
	"fmt"
	"time"

	"corona/internal/clientproto"
	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/feed"
	"corona/internal/ids"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// Simulation is a Corona cloud under a virtual clock: N nodes on a
// simulated network, one origin hosting generator-backed feeds, and one
// client registry delivering notifications to Go callbacks. Protocol
// hours run in real milliseconds, deterministically. It is the embedded
// counterpart of the experiment harness that regenerates the paper's
// figures. Drive a Simulation from one goroutine.
type Simulation struct {
	sim    *eventsim.Sim
	net    *simnet.Network
	origin *webserver.Origin
	nodes  []*core.Member
	// clients is every node's notifier: each subscriber's callback is
	// an in-process claim on its handle.
	clients *clientproto.SessionTable

	feeds    int
	feedSeed int64
}

// NewSimulation builds a virtual-time cluster.
func NewSimulation(opts Options) (*Simulation, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	sim := eventsim.New(opts.Seed)
	s := &Simulation{
		sim:      sim,
		net:      simnet.New(sim, simnet.FixedLatency(10*time.Millisecond)),
		origin:   webserver.NewOrigin(),
		clients:  clientproto.NewSessionTable(sim.Now),
		feedSeed: opts.Seed * 7919,
	}
	fetcher := &core.OriginFetcher{Origin: s.origin, Clock: sim}
	for i, overlay := range s.net.Ring(opts.Nodes, sim.RNG("corona-cluster-ids")) {
		n, err := core.Assemble(opts.coreConfig(opts.Seed+int64(i)),
			core.Seams{Overlay: overlay, Clock: sim, Fetcher: fetcher, Notifier: s.clients})
		if err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		n.Start()
	}
	return s, nil
}

// HostFeed registers a synthetic RSS feed at the given URL that publishes
// fresh items every updateEvery. It returns an error for duplicate URLs.
func (s *Simulation) HostFeed(url string, updateEvery time.Duration) error {
	if updateEvery <= 0 {
		return fmt.Errorf("corona: updateEvery must be positive")
	}
	s.feeds++
	seed := s.feedSeed + int64(s.feeds)
	for _, existing := range s.origin.Channels() {
		if existing == url {
			return fmt.Errorf("corona: feed %q already hosted", url)
		}
	}
	s.origin.Host(webserver.ChannelConfig{
		URL:       url,
		Process:   webserver.PeriodicProcess{Origin: s.sim.Now(), Interval: updateEvery},
		Generator: feed.NewGenerator(url, seed),
	})
	return nil
}

// entryNode picks the overlay entry point for a client deterministically.
func (s *Simulation) entryNode(client string) *core.Member {
	h := ids.HashString(client)
	return s.nodes[int(h[0])%len(s.nodes)]
}

// Subscribe registers interest in url; notifications invoke fn. The
// subscription propagates through the overlay as virtual time runs.
func (s *Simulation) Subscribe(client, url string, fn func(Notification)) error {
	if fn == nil {
		return fmt.Errorf("corona: nil notification callback")
	}
	s.clients.Claim(client, fn)
	s.entryNode(client).Subscribe(client, url)
	return nil
}

// Unsubscribe removes interest in url for the client.
func (s *Simulation) Unsubscribe(client, url string) {
	s.entryNode(client).Unsubscribe(client, url)
}

// ChannelStatus reports the cloud's view of a channel: how many nodes
// poll it, and the owner's level, subscriber count and delegates.
func (s *Simulation) ChannelStatus(url string) ChannelStatus {
	st := ChannelStatus{URL: url}
	id := ids.HashString(url)
	owner := false
	for _, n := range s.nodes {
		info, ok := n.Channel(url)
		if info.Polling {
			st.Pollers++
		}
		if ok && !owner && n.Overlay().IsRoot(id) {
			owner = true
			st.Level, st.Subscribers, st.Delegates = info.Level, info.Subscribers, info.Delegates
			st.Version, st.ContentVersion = info.LastVersion, info.ContentVersion
		}
	}
	return st
}

// ChannelActivity reports each node's cumulative fan-out work, labeled
// with its role for the given channel: the owner disseminates through its
// delegates, delegates fan their partitions out to entry nodes, everyone
// else stays silent. Nodes with no fan-out activity and no role are
// omitted. Counters are node totals, so the breakdown is sharpest when
// one hot channel dominates the cloud (the flash-crowd scenario).
func (s *Simulation) ChannelActivity(url string) []NodeActivity {
	var out []NodeActivity
	for _, n := range s.nodes {
		a := NodeActivity{Node: n.Self().ID.String()[:8]}
		if info, ok := n.Channel(url); ok {
			a.Owner = info.Owner
			a.Delegate = info.DelegateFor > 0
		}
		ns := n.Stats()
		a.Notifications = ns.NotificationsSent
		a.NotifyBatches = ns.NotifyBatchesSent
		a.DelegatePushes = ns.DelegateUpdates
		if a.Owner || a.Delegate || a.Notifications > 0 || a.NotifyBatches > 0 {
			out = append(out, a)
		}
	}
	return out
}

// Stats summarizes activity across the cloud.
func (s *Simulation) Stats() Stats {
	st := Stats{Nodes: len(s.nodes)}
	load := s.origin.TotalLoad()
	st.Polls = load.Polls
	st.BytesServed = load.BytesServed
	for _, n := range s.nodes {
		ns := n.Stats()
		st.UpdatesDetected += ns.UpdatesDetected
		st.Notifications += ns.NotificationsSent
	}
	st.WireBytes = s.net.Bytes()
	st.MessagesDropped = s.net.Dropped()
	return st
}

// RunFor advances virtual time by d, executing all protocol activity due
// in that window. Notification callbacks run on the calling goroutine.
func (s *Simulation) RunFor(d time.Duration) { s.sim.RunFor(d) }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Time { return s.sim.Now() }

// Close stops all nodes.
func (s *Simulation) Close() {
	for _, n := range s.nodes {
		n.Stop()
	}
}
