package corona

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"strings"
	"time"

	"corona/internal/core"
	"corona/internal/metrics"
	"corona/internal/store"
)

// liveStatKind says how a LiveStats field is exposed.
type liveStatKind int

const (
	statCounter liveStatKind = iota
	statGauge
)

// liveStatSpec maps one numeric LiveStats field (by dot path, embedded
// structs included) to its exposed metric. The table is the single
// source of truth for the snapshot-fed scalar metrics: the admin
// registry iterates it to register and refresh them, and the
// completeness test reflects over LiveStats to assert no numeric field
// is missing from it — adding a counter to core.Stats without wiring it
// here fails the build's tests, not a dashboard six weeks later.
type liveStatSpec struct {
	field string
	name  string
	help  string
	kind  liveStatKind
}

var liveStatsSpec = []liveStatSpec{
	{"Stats.PollsIssued", "corona_polls_issued_total", "HTTP polls issued against channel origins.", statCounter},
	{"Stats.UpdatesDetected", "corona_updates_detected_total", "Channel updates detected first-hand by this node's polls.", statCounter},
	{"Stats.UpdatesReceived", "corona_updates_received_total", "Channel updates learned via cooperative dissemination.", statCounter},
	{"Stats.NotificationsSent", "corona_notifications_sent_total", "Per-client notifications sent toward entry nodes.", statCounter},
	{"Stats.NotifyBatchesSent", "corona_notify_batches_sent_total", "Entry-node notify batches emitted (local and overlay).", statCounter},
	{"Stats.DelegateUpdates", "corona_delegate_updates_total", "Per-delegate update disseminations sent by owned channels.", statCounter},
	{"Stats.MaintenanceRounds", "corona_maintenance_rounds_total", "Maintenance protocol rounds completed.", statCounter},
	{"Stats.LevelChanges", "corona_level_changes_total", "Polling level transitions applied by maintenance.", statCounter},
	{"Stats.LeaseRefreshes", "corona_lease_refreshes_total", "Entry-node lease heartbeats applied at owned channels.", statCounter},
	{"Stats.LeaseReroutes", "corona_lease_reroutes_total", "Dead entry records re-pointed by the lease sweep.", statCounter},
	{"Stats.OwnerClaimsRouted", "corona_owner_claims_routed_total", "Anti-entropy ownership claims routed by displaced owners.", statCounter},
	{"Stats.SubscriptionsHeld", "corona_subscriptions_held", "Client subscriptions entering the overlay through this node.", statGauge},
	{"Stats.ChannelsOwned", "corona_channels_owned", "Channels this node currently owns.", statGauge},
	{"Stats.ChannelsPolled", "corona_channels_polled", "Channels this node currently polls at some level.", statGauge},
	{"Stats.DelegatesHeld", "corona_delegates_held", "Fan-out partitions this node carries for other owners.", statGauge},
	{"Stats.DelegatesActive", "corona_delegates_active", "Delegates recruited across this node's owned channels.", statGauge},
	{"Store.Generation", "corona_store_generation", "Durable store snapshot/WAL generation.", statGauge},
	{"Store.WALBytes", "corona_store_wal_bytes", "Current write-ahead log size on disk.", statGauge},
	{"Store.RecordsSinceSnapshot", "corona_store_records_since_snapshot", "WAL records a restart would replay.", statGauge},
	{"Undeliverable", "corona_gateway_undeliverable_total", "Notifications for a client with no live session on this node.", statCounter},
	{"NotifyDropped", "corona_client_notify_dropped_total", "Notifications dropped by the binary and line edges: evicted from full client outbound queues, or oversize.", statCounter},
	{"NotifyBatchesRecv", "corona_gateway_notify_batches_total", "Batched notification calls received by the gateway.", statCounter},
	{"BatchClients", "corona_gateway_batch_clients_total", "Client deliveries covered by gateway notification batches.", statCounter},
}

// liveStatValue resolves a liveStatsSpec dot path against a LiveStats
// snapshot and returns the field as a float64. The second result is
// false when the path does not name a numeric field — a spec/struct
// mismatch the completeness test turns into a failure.
func liveStatValue(ls LiveStats, path string) (float64, bool) {
	v := reflect.ValueOf(ls)
	for _, part := range strings.Split(path, ".") {
		if v.Kind() != reflect.Struct {
			return 0, false
		}
		v = v.FieldByName(part)
		if !v.IsValid() {
			return 0, false
		}
	}
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint()), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int()), true
	case reflect.Float32, reflect.Float64:
		return v.Float(), true
	}
	return 0, false
}

// newRegistry builds the node's metric registry: the liveStatsSpec
// scalars, the overlay/transport counters, the store's commit-latency
// histogram re-exposed in its native buckets, per-peer queue gauges,
// and the per-stage notification latency histogram (it wires the core
// node's two stages; each client edge gets its stage's observer from
// observeStage when it is constructed). Snapshot-fed families refresh in
// one OnGather pass per scrape, each source read through a single
// coherent snapshot.
func (ln *LiveNode) newRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()

	counters := make(map[string]*metrics.Counter, len(liveStatsSpec))
	gauges := make(map[string]*metrics.Gauge, len(liveStatsSpec))
	for _, spec := range liveStatsSpec {
		switch spec.kind {
		case statCounter:
			counters[spec.field] = reg.Counter(spec.name, spec.help)
		case statGauge:
			gauges[spec.field] = reg.Gauge(spec.name, spec.help)
		}
	}
	storeEnabled := reg.Gauge("corona_store_enabled", "1 when the node persists channel state (DataDir set).")
	storeIOError := reg.Gauge("corona_store_io_error", "1 when the store has latched an IO error and durability is degraded.")
	commitBounds := make([]float64, len(store.CommitLatencyBounds))
	for i, b := range store.CommitLatencyBounds {
		commitBounds[i] = b.Seconds()
	}
	commitLat := reg.Histogram("corona_store_commit_latency_seconds",
		"Group-commit (write+fsync) latency, re-exposed from the store's native buckets.", commitBounds)

	overlaySent := reg.Counter("corona_overlay_messages_sent_total", "Overlay messages originated by this node.")
	overlayRouted := reg.Counter("corona_overlay_messages_routed_total", "Overlay messages forwarded through this node.")
	overlayDelivered := reg.Counter("corona_overlay_messages_delivered_total", "Overlay messages delivered to this node.")
	overlayBroadcasts := reg.Counter("corona_overlay_broadcasts_sent_total", "Leaf-set broadcasts originated by this node.")
	overlayHops := reg.Counter("corona_overlay_route_hops_total", "Accumulated hop counts of delivered overlay messages.")
	overlayRepairs := reg.Counter("corona_overlay_repairs_total", "Leaf-set and routing-table repairs performed.")
	overlayJoined := reg.Gauge("corona_overlay_joined", "1 once the node's ring join handshake has completed.")
	wireSent := reg.Counter("corona_wire_bytes_sent_total", "Bytes written to overlay peer connections.")
	wireRecv := reg.Counter("corona_wire_bytes_received_total", "Bytes read from overlay peer connections.")
	wireDropped := reg.Counter("corona_wire_dropped_total", "Outbound overlay messages discarded locally before the wire.")

	peerDepth := reg.GaugeVec("corona_peer_queue_depth", "Outbound send-queue depth toward one overlay peer.", "peer")
	peerCapacity := reg.GaugeVec("corona_peer_queue_capacity", "Outbound send-queue capacity toward one overlay peer.", "peer")
	peerDrops := reg.CounterVec("corona_peer_queue_dropped_total", "Messages toward one overlay peer dropped locally.", "peer")

	clientSessions := reg.Gauge("corona_client_sessions", "Client-protocol sessions currently attached.")

	ln.stages = reg.HistogramVec("corona_notify_stage_latency_seconds",
		"Wall-clock latency from update detection to each notification pipeline stage.",
		metrics.DurationBuckets, "stage")
	ln.node.SetStageObservers(ln.observeStage("owner_send"), ln.observeStage("entry_recv"))

	reg.OnGather(func() {
		ls := ln.Stats()
		for _, spec := range liveStatsSpec {
			v, ok := liveStatValue(ls, spec.field)
			if !ok {
				continue // spec/struct mismatch; the completeness test catches it
			}
			switch spec.kind {
			case statCounter:
				counters[spec.field].Set(uint64(v))
			case statGauge:
				gauges[spec.field].Set(v)
			}
		}
		if ls.Store.Enabled {
			storeEnabled.Set(1)
			commitLat.SetSnapshot(ls.Store.CommitLatency, ls.Store.CommitLatencySum.Seconds())
		}
		if ls.Store.Err != "" {
			storeIOError.Set(1)
		} else {
			storeIOError.Set(0)
		}

		os := ln.overlay.Stats()
		overlaySent.Set(os.MessagesSent)
		overlayRouted.Set(os.MessagesRouted)
		overlayDelivered.Set(os.MessagesDelivered)
		overlayBroadcasts.Set(os.BroadcastsSent)
		overlayHops.Set(os.RouteHopsTotal)
		overlayRepairs.Set(os.Repairs)
		if ln.overlay.Joined() {
			overlayJoined.Set(1)
		} else {
			overlayJoined.Set(0)
		}
		sent, recv := ln.transport.WireBytes()
		wireSent.Set(sent)
		wireRecv.Set(recv)
		wireDropped.Set(ln.transport.Dropped())

		// Peer queues churn with the leaf set; rebuild the label sets
		// from scratch so departed peers' series disappear.
		peerDepth.Reset()
		peerCapacity.Reset()
		peerDrops.Reset()
		for _, q := range ln.PeerQueues() {
			peerDepth.With(q.Endpoint).Set(float64(q.Depth))
			peerCapacity.With(q.Endpoint).Set(float64(q.Capacity))
			peerDrops.With(q.Endpoint).Set(q.Drops)
		}

		if ln.clients != nil {
			clientSessions.Set(float64(ln.clients.Sessions()))
		}
	})
	return reg
}

// observeStage returns the observer feeding one stage of the
// notification latency histogram.
func (ln *LiveNode) observeStage(stage string) func(time.Duration) {
	h := ln.stages.With(stage)
	return func(d time.Duration) { h.Observe(d.Seconds()) }
}

// adminChannel is the JSON projection of one core.ChannelRecords entry
// served by /channels: routing state flattened to counts and endpoint
// strings, stable enough for operators and scripts to depend on.
type adminChannel struct {
	URL             string   `json:"url"`
	Owner           bool     `json:"owner"`
	Replica         bool     `json:"replica"`
	OwnerEpoch      uint64   `json:"owner_epoch"`
	LastVersion     uint64   `json:"last_version"`
	Polling         bool     `json:"polling"`
	SubscriberCount int      `json:"subscriber_count"`
	Leases          int      `json:"leases"`
	Delegates       []string `json:"delegates,omitempty"`
	DelegateFrom    string   `json:"delegate_from,omitempty"`
	PartitionSize   int      `json:"partition_size,omitempty"`
}

func adminChannelFrom(rec core.ChannelRecords) adminChannel {
	ch := adminChannel{
		URL:             rec.URL,
		Owner:           rec.Owner,
		Replica:         rec.Replica,
		OwnerEpoch:      rec.OwnerEpoch,
		LastVersion:     rec.LastVersion,
		Polling:         rec.Polling,
		SubscriberCount: rec.SubscriberCount,
		Leases:          len(rec.Leases),
		DelegateFrom:    rec.DelegateFrom.Endpoint,
		PartitionSize:   len(rec.DelegatePartition),
	}
	for _, d := range rec.Delegates {
		ch.Delegates = append(ch.Delegates, d.Endpoint)
	}
	return ch
}

// ServeAdmin starts the HTTP admin plane on bind and returns the bound
// address. It serves /metrics (Prometheus text exposition), /healthz
// (process liveness, always 200), /readyz (200 once the node has joined
// the ring and the durable store has no latched IO error, 503
// otherwise), /channels (JSON snapshot of per-channel routing state),
// and /debug/pprof. A node serves at most one admin listener, which
// closes with the node; StartLiveNode calls it when AdminBind is set,
// before the ring join, so readiness is observable from the start.
func (ln *LiveNode) ServeAdmin(bind string) (addr string, err error) {
	if ln.admin != nil {
		return "", fmt.Errorf("corona: admin listener already running at %s", ln.adminL.Addr())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		ln.reg.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ln.overlay.Joined() {
			http.Error(w, "not ready: overlay join pending", http.StatusServiceUnavailable)
			return
		}
		if ln.store != nil {
			if serr := ln.store.Err(); serr != nil {
				http.Error(w, "not ready: store: "+serr.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		if ln.web != nil && ln.web.Closed() {
			http.Error(w, "not ready: web gateway stopped", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/channels", func(w http.ResponseWriter, r *http.Request) {
		channels := []adminChannel{}
		ln.node.EachChannel(func(rec core.ChannelRecords) {
			channels = append(channels, adminChannelFrom(rec))
		})
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(channels)
	})
	// The admin mux is private, so pprof is registered explicitly rather
	// than through net/http/pprof's DefaultServeMux side effects.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	l, err := net.Listen("tcp", bind)
	if err != nil {
		return "", fmt.Errorf("corona: admin listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(l)
	ln.admin = srv
	ln.adminL = l
	return l.Addr().String(), nil
}

// AdminAddr returns the admin-plane listen address, empty when no admin
// listener is running.
func (ln *LiveNode) AdminAddr() string {
	if ln.adminL == nil {
		return ""
	}
	return ln.adminL.Addr().String()
}

// Metrics returns the node's metric registry, the one ServeAdmin serves
// on /metrics. Embedders can add their own instruments to it; they
// appear there alongside the node's.
func (ln *LiveNode) Metrics() *metrics.Registry { return ln.reg }
