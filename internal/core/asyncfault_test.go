package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// The asynchronous-fault tests run core over a simnet whose sends never
// fail: a destination the network cannot reach is reported a moment
// later through OnSendFault, as netwire reports a dead peer. Dead-entry
// repair must then come from the overlay's fault callback alone.

const (
	asyncURL = "http://feeds.example.net/async.xml"
	// asyncRound is the maintenance interval, and the bound on repair.
	asyncRound = 20 * time.Minute
	// asyncUpdates is the origin's update interval.
	asyncUpdates = 10 * time.Minute
	// asyncLatency is the one-way link latency; asyncDetect the delay
	// before a failed send is reported, shorter than one hop.
	asyncLatency = 10 * time.Millisecond
	asyncDetect  = time.Millisecond
)

// asyncEndpoint wraps a simnet endpoint so a send to an unreachable
// destination succeeds locally and faults through the OnSendFault
// callback after asyncDetect.
type asyncEndpoint struct {
	ep    *simnet.Endpoint
	sim   *eventsim.Sim
	fault func(to pastry.Addr, err error)
}

func (a *asyncEndpoint) Send(to pastry.Addr, msg pastry.Message) error {
	if err := a.ep.Send(to, msg); err != nil {
		a.sim.AfterFunc(asyncDetect, func() { a.fault(to, err) })
	}
	return nil
}

func (a *asyncEndpoint) OnSendFault(f func(to pastry.Addr, err error)) { a.fault = f }

// clientCounter counts the notifications each client receives, at
// whichever entry node delivers them.
type clientCounter struct {
	mu  sync.Mutex
	got map[string]int
}

func (c *clientCounter) NotifyBatch(clients []string, _ string, _ uint64, _ string, _ time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, client := range clients {
		c.got[client]++
	}
}

func (c *clientCounter) count(client string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.got[client]
}

type asyncCloud struct {
	sim    *eventsim.Sim
	net    *simnet.Network
	notify *clientCounter
	nodes  []*Node
}

// newAsyncCloud builds n nodes on a converged ring of asynchronous
// endpoints, hosting asyncURL with an update every asyncUpdates.
func newAsyncCloud(t *testing.T, n int, mutate func(cfg *Config)) *asyncCloud {
	t.Helper()
	c := &asyncCloud{sim: eventsim.New(5), notify: &clientCounter{got: make(map[string]int)}}
	c.net = simnet.New(c.sim, simnet.FixedLatency(asyncLatency))
	origin := webserver.NewOrigin()
	origin.Host(webserver.ChannelConfig{
		URL:       asyncURL,
		SizeBytes: 4096,
		Process:   webserver.PeriodicProcess{Origin: eventsim.Epoch.Add(5 * time.Minute), Interval: asyncUpdates},
	})
	rng := c.sim.RNG("ids")
	overlays := make([]*pastry.Node, n)
	for i := range overlays {
		addr := pastry.Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("sim://%d", i)}
		var overlay *pastry.Node
		ep := c.net.Attach(addr.Endpoint, func(m pastry.Message) { overlay.Deliver(m) })
		overlay = pastry.NewNode(addr, &asyncEndpoint{ep: ep, sim: c.sim}, c.sim)
		overlays[i] = overlay
	}
	pastry.BuildStaticOverlay(overlays)
	fetcher := &OriginFetcher{Origin: origin, Clock: c.sim}
	for i, overlay := range overlays {
		cfg := DefaultConfig()
		cfg.NodeCount = n
		cfg.PollInterval = asyncUpdates
		cfg.MaintenanceInterval = asyncRound
		cfg.LeaseTTL = 3 * asyncRound
		cfg.Seed = int64(i)
		if mutate != nil {
			mutate(&cfg)
		}
		node := NewNode(cfg, overlay, c.sim, fetcher, c.notify, nil)
		node.Start()
		c.nodes = append(c.nodes, node)
	}
	return c
}

func (c *asyncCloud) owner() *Node {
	for _, n := range c.nodes {
		if n.overlay.IsRoot(ids.HashString(asyncURL)) {
			return n
		}
	}
	return nil
}

// killEntry subscribes clients through entry and crashes it while the
// subscriptions are in flight. Every survivor then sends to it once, so
// each has evicted it before the subscriptions land, and no one's state
// exchange can list it again: the owner records entries at a node its
// overlay has already evicted, and only a fault that reaches core after
// the eviction can repair them.
func (c *asyncCloud) killEntry(t *testing.T, entry *Node, clients []string) {
	t.Helper()
	for _, client := range clients {
		entry.Subscribe(client, asyncURL)
	}
	c.net.Crash(entry.Self().Endpoint)
	entry.Stop()
	for _, n := range c.nodes {
		if n != entry {
			n.overlay.SendDirect(entry.Self(), "test.probe", nil)
		}
	}
	c.sim.RunFor(time.Second)
	for _, n := range c.nodes {
		if n == entry {
			continue
		}
		for _, a := range n.overlay.KnownNodes() {
			if a.ID == entry.Self().ID {
				t.Fatalf("%s still lists the dead entry node", n.Self().Endpoint)
			}
		}
	}
	rec, _ := c.owner().Records(asyncURL)
	for _, client := range clients {
		if got := rec.Subscribers[client]; got.ID != entry.Self().ID {
			t.Fatalf("owner records %s at %v, want the dead entry node", client, got)
		}
	}
}

// requireRepointed runs the cloud until the next update has been
// published and polled, so its notify has been sent to the dead entry
// node, and one maintenance round more. By then the owner must have
// re-pointed every client at a survivor, and the clients must hear the
// updates after that.
func (c *asyncCloud) requireRepointed(t *testing.T, dead *Node, clients []string) {
	t.Helper()
	c.sim.RunFor(2*asyncUpdates + asyncRound + time.Minute)
	rec, _ := c.owner().Records(asyncURL)
	for _, client := range clients {
		if got := rec.Subscribers[client]; got.ID == dead.Self().ID {
			t.Fatalf("owner still records %s at the dead entry node one round after a failed send", client)
		}
	}
	before := make(map[string]int, len(clients))
	for _, client := range clients {
		before[client] = c.notify.count(client)
	}
	c.sim.RunFor(2 * asyncUpdates)
	for _, client := range clients {
		if c.notify.count(client) == before[client] {
			t.Fatalf("%s heard no update after the re-point", client)
		}
	}
}

// TestOwnerNotifyToEvictedEntryRepoints: the owner's own notify batch
// to an entry node its overlay evicted earlier faults asynchronously,
// and the owner re-points the node's subscribers within one round.
func TestOwnerNotifyToEvictedEntryRepoints(t *testing.T) {
	c := newAsyncCloud(t, 8, nil)
	c.sim.RunFor(time.Minute)
	owner := c.owner()
	var entry *Node
	for _, n := range c.nodes {
		if n != owner {
			entry = n
			break
		}
	}
	clients := []string{"alice", "bob"}
	c.killEntry(t, entry, clients)
	c.requireRepointed(t, entry, clients)
}

// TestDelegateBatchToDeadEntryRepoints: a delegate's notify batch to a
// dead entry node faults asynchronously at the delegate, which reports
// the clients to the owner; the owner re-points them within one round.
// The entry's clients all fall in delegates' slots, so the owner never
// sends to the dead node itself.
func TestDelegateBatchToDeadEntryRepoints(t *testing.T) {
	const threshold = 10
	c := newAsyncCloud(t, 16, func(cfg *Config) {
		cfg.OwnerReplicas = 0
		cfg.DelegateThreshold = threshold
	})
	owner := c.owner()
	live := c.nodes[0]
	if live == owner {
		live = c.nodes[1]
	}
	for i := 0; i < 6*threshold; i++ {
		live.Subscribe(fmt.Sprintf("c%02d", i), asyncURL)
	}
	c.sim.RunFor(asyncRound + time.Minute) // one maintenance round: recruit
	info, _ := owner.Channel(asyncURL)
	if info.Delegates < 2 {
		t.Fatalf("owner recruited %d delegates, want at least 2", info.Delegates)
	}
	// The dead entry node carries no slice itself.
	var entry *Node
	for _, n := range c.nodes {
		if ci, _ := n.Channel(asyncURL); n != owner && n != live && ci.DelegateFor == 0 {
			entry = n
			break
		}
	}
	if entry == nil {
		t.Fatal("every node is the owner, the live entry or a delegate")
	}
	// Clients in delegates' slots only, few enough to keep the roster.
	slots := info.Delegates + 1
	var clients []string
	for i := 0; len(clients) < 3; i++ {
		if client := fmt.Sprintf("e%02d", i); delegateSlot(client, slots) != 0 {
			clients = append(clients, client)
		}
	}
	c.killEntry(t, entry, clients)
	if after, _ := owner.Channel(asyncURL); after.Delegates != info.Delegates {
		t.Fatalf("roster changed from %d to %d delegates", info.Delegates, after.Delegates)
	}
	c.requireRepointed(t, entry, clients)
}
