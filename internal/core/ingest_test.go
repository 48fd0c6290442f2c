package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/codec"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/store"
)

// replWire counts the codec-measured bytes of the replication messages
// (every corona.repl* type) a set of transports sends.
type replWire struct {
	mu    sync.Mutex
	bytes uint64
	msgs  map[string]int // by "type from->to"
}

func (w *replWire) add(from string, to pastry.Addr, msg pastry.Message) {
	if !strings.HasPrefix(msg.Type, "corona.repl") {
		return
	}
	size := uint64(codec.Measure(msg))
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytes += size
	if w.msgs == nil {
		w.msgs = make(map[string]int)
	}
	w.msgs[msg.Type+" "+from+"->"+to.Endpoint]++
}

func (w *replWire) total() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// count returns how many msgType messages from sent to to.
func (w *replWire) count(msgType, from, to string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.msgs[msgType+" "+from+"->"+to]
}

// reset zeroes the tallies.
func (w *replWire) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytes = 0
	w.msgs = nil
}

// tappedEndpoint is a simnet endpoint whose replication sends are tallied.
type tappedEndpoint struct {
	*simnet.Endpoint
	name string
	wire *replWire
}

func (e *tappedEndpoint) Send(to pastry.Addr, msg pastry.Message) error {
	e.wire.add(e.name, to, msg)
	return e.Endpoint.Send(to, msg)
}

// replRing is a small simulated ring of identity-mode nodes with two
// replicas per channel, built inside the package so tests can read
// replica state directly.
type replRing struct {
	sim   *eventsim.Sim
	net   *simnet.Network
	wire  *replWire
	nodes []*Node
}

func newReplRing(t testing.TB, size int, maintenance time.Duration) *replRing {
	t.Helper()
	r := &replRing{sim: eventsim.New(3), wire: &replWire{}}
	r.net = simnet.New(r.sim, simnet.FixedLatency(5*time.Millisecond))
	rng := r.sim.RNG("ids")
	overlays := make([]*pastry.Node, size)
	for i := range overlays {
		ep := fmt.Sprintf("sim://%d", i)
		var overlay *pastry.Node
		attached := r.net.Attach(ep, func(m pastry.Message) {
			if overlay != nil {
				overlay.Deliver(m)
			}
		})
		tapped := &tappedEndpoint{Endpoint: attached, name: ep, wire: r.wire}
		overlay = pastry.NewNode(pastry.DefaultConfig(), pastry.Addr{ID: ids.Random(rng), Endpoint: ep}, tapped, r.sim)
		overlays[i] = overlay
	}
	pastry.BuildStaticOverlay(overlays)
	for i, overlay := range overlays {
		cfg := DefaultConfig()
		cfg.NodeCount = size
		cfg.PollInterval = 1000 * time.Hour
		cfg.MaintenanceInterval = maintenance
		cfg.OwnerReplicas = 2
		cfg.Seed = int64(i)
		n := NewNode(cfg, overlay, r.sim, &OriginFetcher{}, nil, nil)
		n.Start()
		r.nodes = append(r.nodes, n)
	}
	return r
}

// owner returns the ring root of url.
func (r *replRing) owner(url string) *Node {
	id := ids.HashString(url)
	for _, n := range r.nodes {
		if n.overlay.IsRoot(id) {
			return n
		}
	}
	return nil
}

// node returns the node at addr.
func (r *replRing) node(addr pastry.Addr) *Node {
	for _, n := range r.nodes {
		if n.Self().ID == addr.ID {
			return n
		}
	}
	return nil
}

// replicasOf returns the owner's replica set: its f closest neighbors.
func (r *replRing) replicasOf(owner *Node) []*Node {
	var out []*Node
	for _, a := range owner.overlay.Neighbors(owner.cfg.OwnerReplicas) {
		out = append(out, r.node(a))
	}
	return out
}

// ingest subscribes subs fixed-width clients to url through every node
// in turn, in bursts of 500 with a settling second between them, and
// then lets the ring settle.
func (r *replRing) ingest(url string, from, subs int) {
	for i := from; i < from+subs; i++ {
		r.nodes[i%len(r.nodes)].Subscribe(fmt.Sprintf("client-%06d", i), url)
		if i%500 == 499 {
			r.sim.RunFor(time.Second)
		}
	}
	r.sim.RunFor(time.Minute)
}

// ingestCost subscribes subs clients to one channel and returns the
// replication bytes sent and the journal bytes one replica wrote, each
// per subscription. Maintenance never runs, so only the change path
// replicates.
func ingestCost(t *testing.T, subs int) (replPerSub, walPerSub float64) {
	t.Helper()
	const url = "http://feeds.example.net/ingest.xml"
	r := newReplRing(t, 4, 1000*time.Hour)
	owner := r.owner(url)
	replica := r.replicasOf(owner)[0]
	st, _, err := store.Open(store.Options{Dir: t.TempDir(), CompactEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	replica.SetStateSink(st)
	walBefore := st.Stats().WALBytes

	r.ingest(url, 0, subs)

	if info, ok := replica.Channel(url); !ok || !info.Replica || info.Subscribers != subs {
		t.Fatalf("%d subscribers: replica holds %+v, want all of them", subs, info)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	wal := st.Stats().WALBytes - walBefore
	return float64(r.wire.total()) / float64(subs), float64(wal) / float64(subs)
}

// TestSubscribeIngestIsLinear pins linear subscription ingest: the
// replication bytes and the replica's journal bytes each Subscribe costs
// must not grow with the channel's subscriber count. Replicating the
// whole set on every change made both grow linearly — a 6000-subscriber
// flash crowd cost quadratic time to set up.
func TestSubscribeIngestIsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 6000 subscriptions")
	}
	smallRepl, smallWAL := ingestCost(t, 100)
	largeRepl, largeWAL := ingestCost(t, 6000)
	t.Logf("per subscribe: replication %.0f B at 100, %.0f B at 6000; replica journal %.0f B at 100, %.0f B at 6000",
		smallRepl, largeRepl, smallWAL, largeWAL)
	if largeRepl > 2*smallRepl {
		t.Errorf("replication bytes per subscribe grew from %.0f at 100 subscribers to %.0f at 6000, want within 2x", smallRepl, largeRepl)
	}
	if largeWAL > 2*smallWAL {
		t.Errorf("replica journal bytes per subscribe grew from %.0f at 100 subscribers to %.0f at 6000, want within 2x", smallWAL, largeWAL)
	}
}

// BenchmarkSubscribeIngest times ingesting a whole subscriber population
// into one channel on a four-node simulated ring with two replicas, and
// reports the replication bytes each Subscribe cost.
func BenchmarkSubscribeIngest(b *testing.B) {
	const url = "http://feeds.example.net/ingest.xml"
	for _, subs := range []int{100, 1000, 6000} {
		b.Run(fmt.Sprint(subs), func(b *testing.B) {
			var bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := newReplRing(b, 4, 1000*time.Hour)
				b.StartTimer()
				r.ingest(url, 0, subs)
				bytes += r.wire.total()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*subs), "ns/sub")
			b.ReportMetric(float64(bytes)/float64(b.N*subs), "replB/sub")
		})
	}
}
