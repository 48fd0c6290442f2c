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

	"corona/internal/clientproto"
	"corona/internal/core"
	"corona/internal/metrics"
	"corona/internal/store"
)

// liveStatSpec maps one numeric LiveStats field (by dot path, embedded
// structs included) to its exposed metric. The table is the one route
// from a node counter to /metrics: the admin registry iterates it to
// register and refresh the snapshot-fed families, and the completeness
// test reflects over LiveStats to assert no numeric field is missing
// from it — adding a counter to core.Stats without wiring it here fails
// the build's tests, not a dashboard six weeks later. Rows sharing a
// family name are its series: they repeat its help, kind and one label,
// each with its own label value.
type liveStatSpec struct {
	field string
	name  string
	help  string
	kind  metrics.Kind // KindCounter or KindGauge
	// label and value (both empty when the family has one series).
	label, value string
}

const (
	helpReplication   = "Replication messages sent, by kind: full pushes, deltas, per-round heartbeats, and resync requests."
	helpWebSessions   = "Web-gateway sessions currently attached, by transport."
	helpWebDropped    = "Web notify events shed before delivery, by cause."
	helpWebDisconnect = "Web sessions closed by the gateway, by cause."
)

var liveStatsSpec = []liveStatSpec{
	{"Stats.PollsIssued", "corona_polls_issued_total", "HTTP polls issued against channel origins.", metrics.KindCounter, "", ""},
	{"Stats.PollErrors", "corona_poll_errors_total", "Origin polls that failed: unreachable, timed out, an error status or an oversized body.", metrics.KindCounter, "", ""},
	{"Stats.UpdatesDetected", "corona_updates_detected_total", "Channel updates detected first-hand by this node's polls.", metrics.KindCounter, "", ""},
	{"Stats.UpdatesReceived", "corona_updates_received_total", "Channel updates learned via cooperative dissemination.", metrics.KindCounter, "", ""},
	{"Stats.DiffBaseMismatches", "corona_diff_base_mismatch_total", "Disseminated diffs not applied because their base was not the content this node held.", metrics.KindCounter, "", ""},
	{"Stats.NotificationsSent", "corona_notifications_sent_total", "Per-client notifications sent toward entry nodes.", metrics.KindCounter, "", ""},
	{"Stats.NotifyBatchesSent", "corona_notify_batches_sent_total", "Entry-node notify batches emitted (local and overlay).", metrics.KindCounter, "", ""},
	{"Stats.DelegateUpdates", "corona_delegate_updates_total", "Per-delegate update disseminations sent by owned channels.", metrics.KindCounter, "", ""},
	{"Stats.MaintenanceRounds", "corona_maintenance_rounds_total", "Maintenance protocol rounds completed.", metrics.KindCounter, "", ""},
	{"Stats.LevelChanges", "corona_level_changes_total", "Polling level transitions applied by maintenance.", metrics.KindCounter, "", ""},
	{"Stats.LeaseRefreshes", "corona_lease_refreshes_total", "Entry-node lease heartbeats applied at owned channels.", metrics.KindCounter, "", ""},
	{"Stats.LeaseReroutes", "corona_lease_reroutes_total", "Dead entry records re-pointed by the lease sweep.", metrics.KindCounter, "", ""},
	{"Stats.OwnerClaimsRouted", "corona_owner_claims_routed_total", "Anti-entropy ownership claims routed by displaced owners.", metrics.KindCounter, "", ""},
	{"Stats.SubscriptionsHeld", "corona_subscriptions_held", "Subscribers of the channels this node owns, summed over those channels.", metrics.KindGauge, "", ""},
	{"Stats.ChannelsOwned", "corona_channels_owned", "Channels this node currently owns.", metrics.KindGauge, "", ""},
	{"Stats.ChannelsPolled", "corona_channels_polled", "Channels this node currently polls at some level.", metrics.KindGauge, "", ""},
	{"Stats.DelegatesHeld", "corona_delegates_held", "Fan-out partitions this node carries for other owners.", metrics.KindGauge, "", ""},
	{"Stats.DelegatesActive", "corona_delegates_active", "Delegates recruited across this node's owned channels.", metrics.KindGauge, "", ""},
	{"Stats.Replication.FullPushes", "corona_replication_sent_total", helpReplication, metrics.KindCounter, "kind", "full"},
	{"Stats.Replication.Deltas", "corona_replication_sent_total", helpReplication, metrics.KindCounter, "kind", "delta"},
	{"Stats.Replication.Heartbeats", "corona_replication_sent_total", helpReplication, metrics.KindCounter, "kind", "heartbeat"},
	{"Stats.Replication.Resyncs", "corona_replication_sent_total", helpReplication, metrics.KindCounter, "kind", "resync"},
	{"Store.Generation", "corona_store_generation", "Durable store snapshot/WAL generation.", metrics.KindGauge, "", ""},
	{"Store.WALBytes", "corona_store_wal_bytes", "Current write-ahead log size on disk.", metrics.KindGauge, "", ""},
	{"Store.RecordsSinceSnapshot", "corona_store_records_since_snapshot", "WAL records a restart would replay.", metrics.KindGauge, "", ""},
	{"Overlay.MessagesSent", "corona_overlay_messages_sent_total", "Overlay messages originated by this node.", metrics.KindCounter, "", ""},
	{"Overlay.MessagesRouted", "corona_overlay_messages_routed_total", "Overlay messages forwarded through this node.", metrics.KindCounter, "", ""},
	{"Overlay.MessagesDelivered", "corona_overlay_messages_delivered_total", "Overlay messages delivered to this node.", metrics.KindCounter, "", ""},
	{"Overlay.BroadcastsSent", "corona_overlay_broadcasts_sent_total", "Leaf-set broadcasts originated by this node.", metrics.KindCounter, "", ""},
	{"Overlay.RouteHopsTotal", "corona_overlay_route_hops_total", "Accumulated hop counts of delivered overlay messages.", metrics.KindCounter, "", ""},
	{"Overlay.Repairs", "corona_overlay_repairs_total", "Leaf-set and routing-table repairs performed.", metrics.KindCounter, "", ""},
	{"Wire.BytesSent", "corona_wire_bytes_sent_total", "Bytes written to overlay peer connections.", metrics.KindCounter, "", ""},
	{"Wire.BytesReceived", "corona_wire_bytes_received_total", "Bytes read from overlay peer connections.", metrics.KindCounter, "", ""},
	{"Wire.Dropped", "corona_wire_dropped_total", "Outbound overlay messages discarded locally before the wire.", metrics.KindCounter, "", ""},
	{"Web.SessionsWS", "corona_web_sessions", helpWebSessions, metrics.KindGauge, "transport", "ws"},
	{"Web.SessionsSSE", "corona_web_sessions", helpWebSessions, metrics.KindGauge, "transport", "sse"},
	{"Web.ReplayHits", "corona_web_replay_hits_total", "Resume cursors served completely from the replay ring.", metrics.KindCounter, "", ""},
	{"Web.ReplayMissesBufferWrap", "corona_web_replay_misses_total", "Resume cursors past the replay window, answered snapshot-required.", metrics.KindCounter, "", ""},
	{"Web.ReplayWraps", "corona_web_replay_wraps_total", "Replay ring entries overwritten by wrap-around.", metrics.KindCounter, "", ""},
	{"Web.DroppedSlowClient", "corona_web_notify_dropped_total", helpWebDropped, metrics.KindCounter, "cause", "slow_client"},
	{"Web.DroppedOversize", "corona_web_notify_dropped_total", helpWebDropped, metrics.KindCounter, "cause", "oversize"},
	{"Web.DisconnectsSlowClient", "corona_web_disconnects_total", helpWebDisconnect, metrics.KindCounter, "cause", "slow_client"},
	{"Web.DisconnectsDisplaced", "corona_web_disconnects_total", helpWebDisconnect, metrics.KindCounter, "cause", "displaced"},
	{"Web.Notifies", "corona_web_notifies_total", "Notify events enqueued to web sessions.", metrics.KindCounter, "", ""},
	{"OriginDials", "corona_origin_dials_total", "Connections dialed to channel origins; polls reuse idle keep-alive connections, so this stays far below the poll count.", metrics.KindCounter, "", ""},
	{"Undeliverable", "corona_gateway_undeliverable_total", "Notifications for a client with no live session on this node.", metrics.KindCounter, "", ""},
	{"NotifyDropped", "corona_client_notify_dropped_total", "Notifications dropped by the binary and line edges: evicted from full client outbound queues, or oversize.", metrics.KindCounter, "", ""},
	{"NotifyBatchesRecv", "corona_gateway_notify_batches_total", "Batched notification calls received by the node's client registry.", metrics.KindCounter, "", ""},
	{"BatchClients", "corona_gateway_batch_clients_total", "Client deliveries covered by those notification batches.", metrics.KindCounter, "", ""},
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
// families, the store's commit-latency histogram re-exposed in its
// native buckets, the store and join flags, per-peer queue gauges, the
// client session gauges, and the per-stage notification latency
// histogram (the core node and each client edge get their stages'
// observers from observeStage when they are constructed). The
// snapshot-fed families refresh in one OnGather pass per scrape, each
// source read through a single coherent snapshot.
func (ln *LiveNode) newRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()

	// One instrument per spec row. Every family is registered as a
	// vector, with no labels for a single-series family, so the rows of
	// a labelled family share the vector their first row registers.
	counters := make([]*metrics.Counter, len(liveStatsSpec))
	gauges := make([]*metrics.Gauge, len(liveStatsSpec))
	counterVecs := make(map[string]*metrics.CounterVec)
	gaugeVecs := make(map[string]*metrics.GaugeVec)
	for i, spec := range liveStatsSpec {
		var labels, values []string
		if spec.label != "" {
			labels, values = []string{spec.label}, []string{spec.value}
		}
		if spec.kind == metrics.KindCounter {
			if counterVecs[spec.name] == nil {
				counterVecs[spec.name] = reg.CounterVec(spec.name, spec.help, labels...)
			}
			counters[i] = counterVecs[spec.name].With(values...)
		} else {
			if gaugeVecs[spec.name] == nil {
				gaugeVecs[spec.name] = reg.GaugeVec(spec.name, spec.help, labels...)
			}
			gauges[i] = gaugeVecs[spec.name].With(values...)
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
	overlayJoined := reg.Gauge("corona_overlay_joined", "1 once the node's ring join handshake has completed.")

	peerDepth := reg.GaugeVec("corona_peer_queue_depth", "Outbound send-queue depth toward one overlay peer.", "peer")
	peerCapacity := reg.GaugeVec("corona_peer_queue_capacity", "Outbound send-queue capacity toward one overlay peer.", "peer")
	peerDrops := reg.CounterVec("corona_peer_queue_dropped_total", "Messages toward one overlay peer dropped locally.", "peer")

	clientSessions := reg.GaugeVec("corona_client_sessions",
		"Binary and line client sessions currently logged in, by transport.", "transport")
	binarySessions := clientSessions.With(clientproto.TransportBinary)
	lineSessions := clientSessions.With(clientproto.TransportLine)

	ln.stages = reg.HistogramVec("corona_notify_stage_latency_seconds",
		"Wall-clock latency from update detection to each notification pipeline stage.",
		metrics.DurationBuckets, "stage")

	reg.OnGather(func() {
		ls := ln.Stats()
		for i, spec := range liveStatsSpec {
			v, ok := liveStatValue(ls, spec.field)
			if !ok {
				continue // spec/struct mismatch; the completeness test catches it
			}
			if spec.kind == metrics.KindCounter {
				counters[i].Set(uint64(v))
			} else {
				gauges[i].Set(v)
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
		if ln.overlay.Joined() {
			overlayJoined.Set(1)
		} else {
			overlayJoined.Set(0)
		}

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

		binarySessions.Set(float64(ln.sessions.Count(clientproto.TransportBinary)))
		lineSessions.Set(float64(ln.sessions.Count(clientproto.TransportLine)))
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
	Level           int      `json:"level"`
	Pollers         int      `json:"pollers"`
	PollSlot        int      `json:"poll_slot"`
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
		Level:           rec.Level,
		Pollers:         rec.Pollers,
		PollSlot:        rec.PollSlot,
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
		if st := ln.node.Store(); st != nil {
			if serr := st.Err(); serr != nil {
				http.Error(w, "not ready: store: "+serr.Error(), http.StatusServiceUnavailable)
				return
			}
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
