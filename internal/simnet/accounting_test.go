package simnet_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"corona/internal/codec"
	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// tally is a node's transport: it encodes every message the node sends,
// as netwire would, and adds up the bodies before handing the message to
// its simnet endpoint.
type tally struct {
	t     *testing.T
	ep    *simnet.Endpoint
	bytes *uint64
	core  *int // messages of Corona's own types
}

func (tl tally) Send(to pastry.Addr, msg pastry.Message) error {
	body, err := codec.Encode(msg)
	if err != nil {
		tl.t.Errorf("%s does not encode: %v", msg.Type, err)
	}
	*tl.bytes += uint64(len(body))
	if strings.HasPrefix(msg.Type, "corona.") {
		*tl.core++
	}
	return tl.ep.Send(to, msg)
}

// countNotifier counts notifications handed to entry nodes.
type countNotifier struct{ n int }

func (c *countNotifier) NotifyBatch(clients []string, _ string, _ uint64, _ string, _ time.Time) {
	c.n += len(clients)
}

// TestBytesCountCoreTrafficWithoutRegistration pins simnet's byte
// accounting on a ring built from package core alone, with nothing but
// core's own handler registrations: Network.Bytes must be the
// codec-encoded size of every message the ring carried, Corona's
// subscriptions, replication and notifications included. Sizing a
// message must not depend on some other package having declared its
// payload type.
func TestBytesCountCoreTrafficWithoutRegistration(t *testing.T) {
	sim := eventsim.New(11)
	net := simnet.New(sim, simnet.FixedLatency(10*time.Millisecond))
	rng := sim.RNG("accounting-ids")
	var sent uint64
	var coreMsgs int
	overlays := make([]*pastry.Node, 6)
	for i := range overlays {
		addr := pastry.Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("sim://%d", i)}
		var node *pastry.Node
		ep := net.Attach(addr.Endpoint, func(m pastry.Message) { node.Deliver(m) })
		node = pastry.NewNode(addr, tally{t: t, ep: ep, bytes: &sent, core: &coreMsgs}, sim)
		overlays[i] = node
	}
	pastry.BuildStaticOverlay(overlays)

	origin := webserver.NewOrigin()
	fetcher := &core.OriginFetcher{Origin: origin, Clock: sim}
	notify := &countNotifier{}
	var nodes []*core.Node
	for i, overlay := range overlays {
		cfg := core.DefaultConfig()
		cfg.NodeCount = len(overlays)
		cfg.PollInterval = time.Minute
		cfg.MaintenanceInterval = 5 * time.Minute
		cfg.OwnerReplicas = 2
		cfg.Seed = int64(i)
		node := core.NewNode(cfg, overlay, sim, fetcher, notify, nil)
		node.Start()
		nodes = append(nodes, node)
	}
	for c := 0; c < 4; c++ {
		url := fmt.Sprintf("http://feeds.example.net/%d.xml", c)
		origin.Host(webserver.ChannelConfig{
			URL:       url,
			SizeBytes: 2048,
			Process:   webserver.PeriodicProcess{Origin: eventsim.Epoch.Add(time.Minute), Interval: 3 * time.Minute},
		})
		for i, node := range nodes {
			node.Subscribe(fmt.Sprintf("client-%d-%d", c, i), url)
		}
	}
	sim.RunFor(30 * time.Minute)

	if notify.n == 0 || coreMsgs == 0 {
		t.Fatalf("ring carried %d Corona messages and %d notifications; want traffic to account", coreMsgs, notify.n)
	}
	if got := net.Bytes(); got != sent {
		t.Fatalf("Network.Bytes = %d, want %d: the encoded size of the %d Corona messages and the overlay's own", got, sent, coreMsgs)
	}
}
