package corona

import (
	"fmt"
	"sync"
	"time"

	"corona/internal/clientproto"
	"corona/internal/clock"
	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/feed"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// cloud is the shared assembly behind Cluster and Simulation: N Corona
// nodes on a message fabric, one origin hosting generator-backed feeds,
// and one client registry delivering notifications to Go callbacks.
type cloud struct {
	opts   Options
	origin *webserver.Origin
	nodes  []*core.Node
	net    *simnet.Network
	clk    clock.Clock
	// exec serializes operations that drive protocol activity onto the
	// goroutine that owns the event loop. Simulations run inline (the
	// caller owns the loop); real-time clusters enqueue onto the driver.
	exec func(func())
	// clients is every node's notifier: each subscriber's callback is
	// an in-process claim on its handle.
	clients *clientproto.SessionTable

	mu       sync.Mutex
	seq      int
	feedSeed int64
}

// buildCloud assembles nodes over the given simulator-backed network.
func buildCloud(opts Options, sim *eventsim.Sim, net *simnet.Network, clk clock.Clock) *cloud {
	c := &cloud{
		opts:     opts,
		origin:   webserver.NewOrigin(),
		net:      net,
		clk:      clk,
		exec:     func(f func()) { f() },
		clients:  clientproto.NewSessionTable(clk.Now),
		feedSeed: opts.Seed * 7919,
	}
	fetcher := &core.OriginFetcher{Origin: c.origin, Clock: clk}
	rng := sim.RNG("corona-cluster-ids")
	overlays := make([]*pastry.Node, opts.Nodes)
	for i := range overlays {
		ep := fmt.Sprintf("sim://%d", i)
		var node *pastry.Node
		endpoint := net.Attach(ep, func(m pastry.Message) {
			if node != nil {
				node.Deliver(m)
			}
		})
		node = pastry.NewNode(pastry.DefaultConfig(), pastry.Addr{ID: ids.Random(rng), Endpoint: ep}, endpoint, clk)
		overlays[i] = node
	}
	pastry.BuildStaticOverlay(overlays)
	for i, overlay := range overlays {
		cfg := core.DefaultConfig()
		cfg.Policy = core.PolicyConfig{Scheme: opts.Scheme.coreScheme(), FastTarget: opts.FastTarget}
		cfg.PollInterval = opts.PollInterval
		cfg.MaintenanceInterval = opts.MaintenanceInterval
		cfg.NodeCount = opts.Nodes
		cfg.CountSubscribersOnly = false
		cfg.OwnerReplicas = opts.Replicas
		cfg.DelegateThreshold = opts.DelegateThreshold
		cfg.ContentMode = opts.ContentMode
		cfg.Seed = opts.Seed + int64(i)
		n := core.NewNode(cfg, overlay, clk, fetcher, c.clients, nil)
		c.nodes = append(c.nodes, n)
		n.Start()
	}
	return c
}

// HostFeed registers a synthetic RSS feed at the given URL that publishes
// fresh items every updateEvery. It returns an error for duplicate URLs.
func (c *cloud) HostFeed(url string, updateEvery time.Duration) error {
	if updateEvery <= 0 {
		return fmt.Errorf("corona: updateEvery must be positive")
	}
	c.mu.Lock()
	c.seq++
	seed := c.feedSeed + int64(c.seq)
	c.mu.Unlock()
	for _, existing := range c.origin.Channels() {
		if existing == url {
			return fmt.Errorf("corona: feed %q already hosted", url)
		}
	}
	c.origin.Host(webserver.ChannelConfig{
		URL:       url,
		Process:   webserver.PeriodicProcess{Origin: c.clk.Now(), Interval: updateEvery},
		Generator: feed.NewGenerator(url, seed),
	})
	return nil
}

// entryNode picks the overlay entry point for a client deterministically.
func (c *cloud) entryNode(client string) *core.Node {
	h := ids.HashString(client)
	return c.nodes[int(h[0])%len(c.nodes)]
}

// Subscribe registers interest in url; notifications invoke fn. The
// subscription propagates asynchronously through the overlay.
func (c *cloud) Subscribe(client, url string, fn func(Notification)) error {
	if fn == nil {
		return fmt.Errorf("corona: nil notification callback")
	}
	c.clients.Claim(client, fn)
	c.exec(func() { c.entryNode(client).Subscribe(client, url) })
	return nil
}

// Unsubscribe removes interest in url for the client.
func (c *cloud) Unsubscribe(client, url string) error {
	c.exec(func() { c.entryNode(client).Unsubscribe(client, url) })
	return nil
}

// ChannelStatus reports the cloud's view of a channel.
func (c *cloud) ChannelStatus(url string) ChannelStatus {
	st := ChannelStatus{URL: url}
	id := ids.HashString(url)
	for _, n := range c.nodes {
		if level, polling, ok := n.ChannelLevel(url); ok && polling {
			st.Pollers++
			if n.Overlay().IsRoot(id) {
				st.Level = level
				s := n.Stats()
				_ = s
			}
		}
	}
	for _, n := range c.nodes {
		if n.Overlay().IsRoot(id) {
			st.Subscribers = n.Stats().SubscriptionsHeld
			if info, ok := n.Channel(url); ok {
				st.Delegates = info.Delegates
			}
			break
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
func (c *cloud) ChannelActivity(url string) []NodeActivity {
	var out []NodeActivity
	for _, n := range c.nodes {
		a := NodeActivity{Node: n.Self().ID.String()[:8]}
		if info, ok := n.Channel(url); ok {
			a.Owner = info.Owner
			a.Delegate = info.DelegateFor > 0
		}
		s := n.Stats()
		a.Notifications = s.NotificationsSent
		a.NotifyBatches = s.NotifyBatchesSent
		a.DelegatePushes = s.DelegateUpdates
		if a.Owner || a.Delegate || a.Notifications > 0 || a.NotifyBatches > 0 {
			out = append(out, a)
		}
	}
	return out
}

// Stats summarizes activity across the cloud.
func (c *cloud) Stats() Stats {
	s := Stats{Nodes: len(c.nodes)}
	load := c.origin.TotalLoad()
	s.Polls = load.Polls
	s.BytesServed = load.BytesServed
	for _, n := range c.nodes {
		ns := n.Stats()
		s.UpdatesDetected += ns.UpdatesDetected
		s.Notifications += ns.NotificationsSent
	}
	s.WireBytes = c.net.Bytes()
	s.MessagesDropped = c.net.Dropped()
	return s
}

func (c *cloud) stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

// Simulation is a Corona cloud under a virtual clock: protocol hours run
// in real milliseconds, deterministically. It is the embedded counterpart
// of the experiment harness that regenerates the paper's figures.
type Simulation struct {
	*cloud
	sim *eventsim.Sim
}

// NewSimulation builds a virtual-time cluster.
func NewSimulation(opts Options) (*Simulation, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if !opts.ContentMode {
		// Feeds hosted through HostFeed are generator-backed; content
		// mode exercises the real diff path by default.
		opts.ContentMode = true
	}
	sim := eventsim.New(opts.Seed)
	net := simnet.New(sim, simnet.FixedLatency(10*time.Millisecond))
	return &Simulation{cloud: buildCloud(opts, sim, net, sim), sim: sim}, nil
}

// RunFor advances virtual time by d, executing all protocol activity due
// in that window. Notification callbacks run on the calling goroutine.
func (s *Simulation) RunFor(d time.Duration) { s.sim.RunFor(d) }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Time { return s.sim.Now() }

// Close stops all nodes.
func (s *Simulation) Close() { s.stop() }

// Cluster is an in-process, real-time Corona cloud: the same protocol
// stack driven by the wall clock, for demos and embedding. Notification
// callbacks run on timer goroutines; keep them short or hand off.
type Cluster struct {
	*cloud
	driver *realDriver
}

// NewCluster builds a real-time cluster. Poll intervals of seconds make
// interactive demos practical; production clouds use the paper's 30 min.
func NewCluster(opts Options) (*Cluster, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if !opts.ContentMode {
		opts.ContentMode = true
	}
	driver := newRealDriver(opts.Seed)
	net := simnet.New(driver.sim, simnet.FixedLatency(time.Millisecond))
	c := &Cluster{driver: driver}
	c.cloud = buildCloud(opts, driver.sim, net, driver)
	c.cloud.exec = func(f func()) { driver.AfterFunc(0, f) }
	driver.start()
	return c, nil
}

// Close stops the cluster and its driver goroutine.
func (c *Cluster) Close() {
	c.stop()
	c.driver.stop()
}

// realDriver runs an eventsim in step with the wall clock: events fire
// when their virtual due time reaches wall time. This reuses the
// deterministic single-threaded protocol stack for real-time operation,
// serializing all protocol work (callbacks included) on one goroutine.
//
// Timer registrations from arbitrary goroutines — including from inside
// event callbacks — land in a pending queue the loop drains, so AfterFunc
// never touches the simulator concurrently with the loop.
type realDriver struct {
	sim     *eventsim.Sim
	started time.Time

	pendMu  sync.Mutex
	pending []*pendingTimer
	done    bool
}

// pendingTimer is a timer handle that may not have reached the simulator
// yet. Stop works in either state, and never touches the simulator: only
// the driver goroutine may mutate the event heap, so cancellation is a
// flag the wrapped callback checks at fire time (the dead entry stays in
// the heap harmlessly).
type pendingTimer struct {
	mu      sync.Mutex
	delay   time.Duration
	fn      func()
	stopped bool
	fired   bool
}

// Stop implements clock.Timer.
func (p *pendingTimer) Stop() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped || p.fired {
		return false
	}
	p.stopped = true
	return true
}

func newRealDriver(seed int64) *realDriver {
	return &realDriver{sim: eventsim.New(seed), started: time.Now()}
}

// Now maps wall time onto the simulator's epoch-based timeline.
func (d *realDriver) Now() time.Time {
	return eventsim.Epoch.Add(time.Since(d.started))
}

// AfterFunc schedules f to run on the driver goroutine after wall-clock
// delay.
func (d *realDriver) AfterFunc(delay time.Duration, f func()) clock.Timer {
	p := &pendingTimer{delay: delay, fn: f}
	d.pendMu.Lock()
	d.pending = append(d.pending, p)
	d.pendMu.Unlock()
	return p
}

func (d *realDriver) start() {
	go d.loop()
}

func (d *realDriver) stop() {
	d.pendMu.Lock()
	d.done = true
	d.pendMu.Unlock()
}

// loop advances the simulator to the current wall-derived instant, first
// transferring pending timer registrations. Only this goroutine touches
// the simulator after start.
func (d *realDriver) loop() {
	for {
		d.pendMu.Lock()
		if d.done {
			d.pendMu.Unlock()
			return
		}
		pending := d.pending
		d.pending = nil
		d.pendMu.Unlock()

		for _, p := range pending {
			p.mu.Lock()
			if !p.stopped {
				fn := p.fn
				d.sim.AfterFunc(p.delay, func() {
					p.mu.Lock()
					dead := p.stopped
					if !dead {
						p.fired = true
					}
					p.mu.Unlock()
					if !dead {
						fn()
					}
				})
			}
			p.mu.Unlock()
		}
		d.sim.RunUntil(d.Now())
		time.Sleep(time.Millisecond)
	}
}
