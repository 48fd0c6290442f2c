package corona

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"corona/internal/clientproto"
	"corona/internal/clock"
	"corona/internal/codec"
	"corona/internal/core"
	"corona/internal/ids"
	"corona/internal/metrics"
	"corona/internal/netwire"
	"corona/internal/pastry"
	"corona/internal/store"
	"corona/internal/webgateway"
)

// LiveConfig configures one deployed Corona node.
type LiveConfig struct {
	// Bind is the TCP listen address, for example "0.0.0.0:9001".
	Bind string
	// Advertise is the address peers dial; defaults to the bound
	// address (set it when behind NAT).
	Advertise string
	// Seeds are existing cluster members to join through; empty
	// bootstraps a new ring.
	Seeds []string
	// Scheme, FastTarget, PollInterval, MaintenanceInterval as in
	// Options.
	Scheme              Scheme
	FastTarget          time.Duration
	PollInterval        time.Duration
	MaintenanceInterval time.Duration
	// Replicas is the owner replication factor f.
	Replicas int
	// NodeCountHint fixes N for the optimizer; zero estimates it from
	// the leaf set at runtime.
	NodeCountHint int
	// Seed drives the node's randomness (maintenance phase, ring
	// stabilization draws); zero derives it from the bind address.
	Seed int64
	// DataDir, when set, makes the node's channel state durable: owner
	// and replica state is written through a group-committed WAL with
	// snapshot compaction, and a node restarted from the same directory
	// recovers its subscriptions, rejoins the ring, and keeps delivering
	// without clients re-subscribing. Empty keeps everything in memory.
	DataDir string
	// ClientBind, when set, serves the binary client protocol
	// (internal/clientproto; the corona/client SDK's wire format) on this
	// TCP address alongside the overlay port. Empty starts no client
	// listener; ServeClients can start one later.
	ClientBind string
	// LeaseTTL is the entry-node lease window: a client subscriber whose
	// entry node has not heartbeat for it within the TTL (or was detected
	// dead) has its notifications re-routed to a surviving node by the
	// owner's maintain pass. Every client session refreshes its leases
	// every quarter of the TTL. Zero or negative uses the 2-minute
	// default.
	LeaseTTL time.Duration
	// DelegateThreshold is the per-channel subscriber count at which an
	// owner recruits leaf-set delegates and shards notification fan-out
	// across them, keeping the owner's per-update sends O(delegates)
	// instead of O(entry nodes). Zero or negative disables sharding.
	DelegateThreshold int
	// AdminBind, when set, serves the HTTP admin plane on this TCP
	// address: /metrics (Prometheus text exposition), /healthz, /readyz,
	// /channels, and /debug/pprof. It starts before the ring join so the
	// readiness transition is observable. Empty starts no admin listener;
	// ServeAdmin can start one later.
	AdminBind string
	// WebBind, when set, serves the web edge gateway on this TCP address:
	// /ws (WebSocket) and /sse (Server-Sent Events) speaking the JSON
	// projection of the client-protocol session model, backed by
	// per-channel replay ring buffers (internal/webgateway). Empty starts
	// no web listener; ServeWeb can start one later.
	WebBind string
	// WebReplayCap is the per-channel capacity of the replay rings that
	// web sessions resume from; zero uses the package default. The node's
	// client registry keeps the rings, and only once ServeWeb runs: a
	// node without a web edge holds none.
	WebReplayCap int
}

// LiveNode is one Corona overlay member speaking TCP, polling real HTTP
// origins, and running the full maintenance protocol.
type LiveNode struct {
	transport *netwire.Transport
	overlay   *pastry.Node
	node      *core.Member
	fetcher   *core.HTTPFetcher
	clients   *clientproto.Server // nil until ServeClients
	lines     *clientproto.Server // nil until ServeIM
	web       *webgateway.Server  // nil until ServeWeb
	admin     *http.Server        // nil until ServeAdmin
	adminL    net.Listener
	// reg is the node's metric registry, built at start; ServeAdmin
	// mounts it. stages is its per-stage notification latency histogram,
	// whose observers each edge gets when it is constructed.
	reg    *metrics.Registry
	stages *metrics.HistogramVec
	// sessions is the node's client registry and its notifier: the
	// resume-token session table shared by the binary and line servers
	// and the web gateway (so a handle has one live session per node
	// however it connects, and displacement works across transports),
	// which delivers every notification batch to the sessions it names.
	sessions *clientproto.SessionTable
	// webReplayCap is captured from LiveConfig for a ServeWeb that runs
	// after StartLiveNode.
	webReplayCap int
	// leaseTTL is the node's entry-node lease window (LiveConfig.LeaseTTL).
	leaseTTL time.Duration
}

func init() {
	// Wire Corona's payload types once for every live node in the
	// process (the codec registers the overlay's own).
	core.RegisterPayloadTypes(codec.RegisterPayload)
}

// StartLiveNode binds the transport, joins (or bootstraps) the ring, and
// starts the protocol, then serves the client edges LiveConfig names
// (ClientBind, WebBind, AdminBind). Clients of the line protocol are
// served by ServeIM, which cmd/corona-node calls for its -im address.
//
// With Seeds set, StartLiveNode proceeds the moment the join completes:
// the join reply has landed and the members it names have answered this
// node's announcement, so they route with this node in view (one that
// stays silent holds the join up until the next re-send at most). The
// seeds are tried in order: each one gets the join re-sent once a second
// and a deadline of the transport's dial budget plus 2 s, and a seed that
// misses its deadline hands over to the next. StartLiveNode fails when
// none of them answers.
func StartLiveNode(cfg LiveConfig) (*LiveNode, error) {
	if cfg.Bind == "" {
		return nil, fmt.Errorf("corona: Bind address required")
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 30 * time.Minute
	}
	if cfg.MaintenanceInterval == 0 {
		cfg.MaintenanceInterval = cfg.PollInterval
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Minute
	}
	transport, err := netwire.Listen(cfg.Bind, nil)
	if err != nil {
		return nil, err
	}
	advertise := cfg.Advertise
	if advertise == "" {
		advertise = transport.Addr()
	}
	self := pastry.Addr{ID: idFromEndpoint(advertise), Endpoint: advertise}
	clk := clock.Real{}
	overlay := pastry.NewNode(self, transport, clk)
	transport.OnDeliver(overlay.Deliver)

	seed := cfg.Seed
	if seed == 0 {
		seed = int64(beUint(idFromEndpoint(advertise)))
	}
	ccfg := Options{
		Nodes:               cfg.NodeCountHint,
		Scheme:              cfg.Scheme,
		FastTarget:          cfg.FastTarget,
		PollInterval:        cfg.PollInterval,
		MaintenanceInterval: cfg.MaintenanceInterval,
		Replicas:            cfg.Replicas,
		DelegateThreshold:   cfg.DelegateThreshold,
	}.coreConfig(seed)
	ccfg.LeaseTTL = cfg.LeaseTTL

	ln := &LiveNode{
		transport:    transport,
		overlay:      overlay,
		fetcher:      core.NewHTTPFetcher(ccfg.PollInterval),
		sessions:     clientproto.NewSessionTable(nil),
		webReplayCap: cfg.WebReplayCap,
		leaseTTL:     cfg.LeaseTTL,
	}
	ln.reg = ln.newRegistry()
	node, err := core.Assemble(ccfg, core.Seams{Overlay: overlay, Clock: clk, Fetcher: ln.fetcher, Notifier: ln.sessions,
		Store: store.Options{Dir: cfg.DataDir}, OwnerSend: ln.observeStage("owner_send"), EntryRecv: ln.observeStage("entry_recv")})
	if err != nil {
		transport.Close()
		return nil, fmt.Errorf("corona: %w", err)
	}
	ln.node = node
	// The admin plane comes up before the join so /healthz answers and
	// /readyz reports the 503→200 transition instead of appearing only
	// after the node is already ready.
	if cfg.AdminBind != "" {
		if _, err := ln.ServeAdmin(cfg.AdminBind); err != nil {
			ln.Close()
			return nil, err
		}
	}
	if len(cfg.Seeds) == 0 {
		node.Bootstrap()
	} else {
		// Join is asynchronous under netwire: Send enqueues and dial
		// failures surface through the transport's fault callback.
		seeds := make([]pastry.Addr, len(cfg.Seeds))
		for i, seed := range cfg.Seeds {
			seeds[i] = pastry.Addr{ID: idFromEndpoint(seed), Endpoint: seed}
		}
		joined := make(chan bool, 1)
		node.Join(seeds, transport.DialBudget()+2*time.Second, func(ok bool) { joined <- ok })
		if !<-joined {
			ln.Close()
			return nil, fmt.Errorf("corona: no seed reachable among %v", cfg.Seeds)
		}
	}
	if cfg.ClientBind != "" {
		if _, err := ln.ServeClients(cfg.ClientBind); err != nil {
			ln.Close()
			return nil, err
		}
	}
	if cfg.WebBind != "" {
		if _, err := ln.ServeWeb(cfg.WebBind); err != nil {
			ln.Close()
			return nil, err
		}
	}
	return ln, nil
}

// Addr returns the node's advertised overlay address.
func (ln *LiveNode) Addr() string { return ln.overlay.Self().Endpoint }

// Subscribe registers a client directly (bypassing the client edges),
// with this node as the client's entry point.
func (ln *LiveNode) Subscribe(client, url string) error {
	return ln.node.Subscribe(client, url)
}

// Unsubscribe removes a client's subscription.
func (ln *LiveNode) Unsubscribe(client, url string) error {
	return ln.node.Unsubscribe(client, url)
}

// RefreshLeases implements clientproto.Backend: it heartbeats entry-node
// liveness for an attached client's channels, with this node as the
// client's entry point. Each channel's owner refreshes the subscriber's
// lease and re-points its entry record here.
func (ln *LiveNode) RefreshLeases(client string, urls []string) error {
	return ln.node.RefreshLeases(client, urls)
}

// LeaseCadence implements clientproto.Backend: every client session on
// this node refreshes its leases a quarter of the lease TTL apart, so a
// live session's lease never lapses for want of one lost refresh.
func (ln *LiveNode) LeaseCadence() time.Duration { return ln.leaseTTL / 4 }

// ServeClients starts serving the binary client protocol on bind and
// returns the bound address. A node serves at most one client listener,
// which closes with the node; call it once, before the node is shared
// across goroutines (StartLiveNode does, when ClientBind is set).
func (ln *LiveNode) ServeClients(bind string) (addr string, err error) {
	if ln.clients != nil {
		return "", fmt.Errorf("corona: client listener already running at %s", ln.clients.Addr())
	}
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return "", fmt.Errorf("corona: client listener: %w", err)
	}
	ln.clients = clientproto.ServeSessions(l, ln, ln.sessions, ln.observeStage("client_enqueue"))
	return ln.clients.Addr(), nil
}

// ServeIM starts serving the line-oriented IM protocol (the prototype's
// client front end; internal/clientproto's line framing) on bind and
// returns the bound address. Line sessions share the node's session
// table and the binary edge's outbox rules. A node serves at most one
// line listener, which closes with the node; call it once, before the
// node is shared across goroutines.
func (ln *LiveNode) ServeIM(bind string) (addr string, err error) {
	if ln.lines != nil {
		return "", fmt.Errorf("corona: IM listener already running at %s", ln.lines.Addr())
	}
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return "", fmt.Errorf("corona: IM listener: %w", err)
	}
	ln.lines = clientproto.ServeLine(l, ln, ln.sessions, ln.observeStage("im_enqueue"))
	return ln.lines.Addr(), nil
}

// ServeWeb starts the web edge gateway (internal/webgateway: /ws and
// /sse with per-channel replay rings) on bind and returns the bound
// address. The gateway shares the node's session table with the binary
// and line listeners and has the table start keeping replay rings; its
// counters reach /metrics through LiveStats.Web. A node serves at most
// one web listener, which closes with the node; StartLiveNode calls it
// when WebBind is set.
func (ln *LiveNode) ServeWeb(bind string) (addr string, err error) {
	if ln.web != nil {
		return "", fmt.Errorf("corona: web listener already running at %s", ln.web.Addr())
	}
	l, err := net.Listen("tcp", bind)
	if err != nil {
		return "", fmt.Errorf("corona: web listener: %w", err)
	}
	web := webgateway.New(webgateway.Config{
		Backend:   ln,
		Sessions:  ln.sessions,
		ReplayCap: ln.webReplayCap,
	}, ln.observeStage("web_enqueue"))
	web.Serve(l)
	ln.web = web
	return web.Addr(), nil
}

// WebAddr returns the web gateway's listen address, empty when no web
// listener is running.
func (ln *LiveNode) WebAddr() string {
	if ln.web == nil {
		return ""
	}
	return ln.web.Addr()
}

// ClientAddr returns the client-protocol listen address, empty when no
// client listener is running.
func (ln *LiveNode) ClientAddr() string {
	if ln.clients == nil {
		return ""
	}
	return ln.clients.Addr()
}

// Attach claims client on the node's session table for an in-process
// subscriber: deliver receives the client's notifications. The claim
// displaces whatever session holds the handle, over any transport; the
// returned detach ends this claim only.
func (ln *LiveNode) Attach(client string, deliver func(Notification)) (detach func()) {
	return ln.sessions.Claim(client, deliver)
}

// Info implements clientproto.Backend: the node's advertisement to
// connected clients — its overlay endpoint, its leaf-set siblings, and
// the durable store's health.
func (ln *LiveNode) Info() clientproto.ServerInfo {
	si := clientproto.ServerInfo{Node: ln.Addr()}
	for _, leaf := range ln.overlay.Leaves() {
		si.Peers = append(si.Peers, leaf.Endpoint)
	}
	st := ln.storeStats()
	si.Store = clientproto.StoreInfo{
		Enabled:              st.Enabled,
		Generation:           st.Generation,
		WALBytes:             uint64(st.WALBytes),
		RecordsSinceSnapshot: uint64(st.RecordsSinceSnapshot),
		Err:                  st.Err,
	}
	return si
}

// StoreStats is the durable store's health as seen through LiveStats:
// zero-valued with Enabled false for in-memory nodes.
type StoreStats struct {
	// Enabled reports whether the node persists state (DataDir set).
	Enabled bool
	// Generation is the current snapshot/WAL generation.
	Generation uint64
	// WALBytes is the current write-ahead log's on-disk size.
	WALBytes int64
	// RecordsSinceSnapshot is the replay debt a restart would pay.
	RecordsSinceSnapshot int
	// CommitLatency is the store's fixed-bucket group-commit (write+
	// fsync) latency histogram; bucket i counts commits within
	// store.CommitLatencyBounds[i], the last element the overflow.
	CommitLatency []uint64
	// CommitLatencySum is total time spent in group commits, giving the
	// histogram an honest sum alongside the bucket counts.
	CommitLatencySum time.Duration
	// Err is the store's latched first IO error, empty while durability
	// is intact. A non-empty value means committed-window guarantees are
	// gone until the node is restarted on healthy storage.
	Err string
}

// LiveStats extends the node's protocol counters with deployment-only
// state: the overlay's message counters, the transport's wire counters,
// the durable store's
// health and the client and web edges' delivery counters. It is the one
// snapshot /metrics reads its node counters from (admin.go's
// liveStatsSpec).
type LiveStats struct {
	core.Stats
	Store StoreStats
	// Overlay is the overlay node's routing and delivery activity.
	Overlay pastry.Stats
	// Wire is the TCP transport's traffic under the overlay.
	Wire WireStats
	// Web is the web edge gateway's session and delivery accounting,
	// zero-valued when no web listener runs; liveStatsSpec exposes it as
	// the corona_web_* families, which a node without a web edge
	// reports at zero.
	Web webgateway.Counters
	// OriginDials counts connections the node dialed to channel origins.
	OriginDials uint64
	// Undeliverable counts notifications for a client with no live
	// session on this node.
	Undeliverable uint64
	// NotifyDropped counts notifications the binary and line servers
	// discarded: evicted from a client's full outbox, or beyond the frame
	// bound (zero when neither listener runs).
	NotifyDropped uint64
	// NotifyBatchesRecv and BatchClients count batched notification calls
	// the node's session table received and the client deliveries they
	// covered.
	NotifyBatchesRecv uint64
	BatchClients      uint64
}

// WireStats counts the overlay transport's traffic: bytes written to and
// read from peer connections, and outbound messages discarded locally
// before the wire (backpressure, encode failure, retry exhaustion).
type WireStats struct {
	BytesSent     uint64
	BytesReceived uint64
	Dropped       uint64
}

// Stats exposes the node's activity counters and, for durable nodes, the
// store's WAL size, records-since-snapshot, and latched IO error.
func (ln *LiveNode) Stats() LiveStats {
	ls := LiveStats{
		Stats:       ln.node.Stats(),
		Store:       ln.storeStats(),
		Overlay:     ln.overlay.Stats(),
		OriginDials: ln.fetcher.Dials(),
	}
	ls.Wire.BytesSent, ls.Wire.BytesReceived = ln.transport.WireBytes()
	ls.Wire.Dropped = ln.transport.Dropped()
	// One table lock acquisition for the whole counter group, so the
	// batch totals and undeliverable count come from the same instant.
	gc := ln.sessions.DeliveryStats()
	ls.Undeliverable = gc.Undeliverable
	ls.NotifyBatchesRecv, ls.BatchClients = gc.NotifyBatches, gc.BatchClients
	if ln.clients != nil {
		ls.NotifyDropped = ln.clients.NotifyDropped()
	}
	if ln.lines != nil {
		ls.NotifyDropped += ln.lines.NotifyDropped()
	}
	if ln.web != nil {
		ls.Web = ln.web.Counters()
	}
	return ls
}

// storeStats converts the durable store's snapshot into its LiveStats
// form, zero-valued with Enabled false for in-memory nodes.
func (ln *LiveNode) storeStats() StoreStats {
	if ln.node.Store() == nil {
		return StoreStats{}
	}
	st := ln.node.Store().Stats()
	ss := StoreStats{
		Enabled:              true,
		Generation:           st.Generation,
		WALBytes:             st.WALBytes,
		RecordsSinceSnapshot: st.RecordsSinceSnapshot,
		CommitLatency:        st.CommitLatency[:],
		CommitLatencySum:     st.CommitLatencySum,
	}
	if st.Err != nil {
		ss.Err = st.Err.Error()
	}
	return ss
}

// PeerQueueStat describes one peer's outbound send queue on this node's
// transport: instantaneous depth against capacity, plus messages to that
// peer dropped locally (backpressure, encode failure, retry exhaustion).
type PeerQueueStat = netwire.PeerQueueStat

// PeerQueues snapshots the transport's per-peer send queues, making
// backpressure toward slow or dead peers observable. The transport-wide
// drop total is in WireDropped.
func (ln *LiveNode) PeerQueues() []PeerQueueStat {
	return ln.transport.PeerQueues()
}

// WireDropped returns how many outbound messages this node's transport
// discarded locally before they reached the wire.
func (ln *LiveNode) WireDropped() uint64 {
	return ln.transport.Dropped()
}

// closeAdmin tears down the admin listener and in-flight admin
// requests; a no-op when none is running.
func (ln *LiveNode) closeAdmin() {
	if ln.admin != nil {
		ln.admin.Close()
	}
}

// CloseClients gracefully stops the client-facing listeners — the
// binary and line servers and the web gateway's WS/SSE sessions, each
// session draining its outbox so no client sees a torn frame. Safe to
// call before Close (which is idempotent about it); a no-op when none is
// running.
func (ln *LiveNode) CloseClients() {
	if ln.clients != nil {
		ln.clients.Close()
	}
	if ln.lines != nil {
		ln.lines.Close()
	}
	if ln.web != nil {
		ln.web.Close()
	}
}

// Close stops the client listeners (draining every session's outbox) and
// the protocol, flushing and closing the durable store so no
// committed-window state is lost on a graceful shutdown, then closes the
// origin connections and the transport.
func (ln *LiveNode) Close() error {
	ln.closeAdmin()
	ln.CloseClients()
	err := ln.node.Stop()
	ln.fetcher.Close()
	if terr := ln.transport.Close(); err == nil {
		err = terr
	}
	return err
}

// Kill simulates a crash, for recovery and failover testing: client
// connections and the transport die abruptly and the store is abandoned
// without a flush, losing whatever sat inside the current group-commit
// window. Production shutdown is Close.
func (ln *LiveNode) Kill() {
	ln.closeAdmin()
	ln.CloseClients() // connected clients see an abrupt EOF, as in a crash
	ln.node.Crash()
	ln.fetcher.Close()
	ln.transport.Close()
}

// Channel reports this node's view of a channel (ownership, level,
// subscriber count), if it tracks one.
func (ln *LiveNode) Channel(url string) (core.ChannelInfo, bool) {
	return ln.node.Channel(url)
}

// idFromEndpoint derives the node identifier from its advertised address,
// as the prototype hashes the node's IP (§4).
func idFromEndpoint(endpoint string) ids.ID {
	return ids.HashString(endpoint)
}

// beUint folds an identifier's top bytes into a uint64 seed.
func beUint(id ids.ID) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(id[i])
	}
	return v
}
