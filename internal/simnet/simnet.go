// Package simnet is the in-memory message transport used by simulations.
//
// Messages between endpoints are delivered through the discrete-event
// engine after a latency drawn from a configurable model, so the same
// protocol code that runs over TCP in deployments runs under virtual time
// in experiments. The network supports failure injection — crashed hosts,
// message loss, partitions — used by the integration tests.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"corona/internal/codec"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// LatencyModel draws a one-way delivery latency for a message between two
// endpoints.
type LatencyModel interface {
	Latency(from, to string, rng *rand.Rand) time.Duration
}

// FixedLatency delivers every message after a constant delay.
type FixedLatency time.Duration

// Latency implements LatencyModel.
func (f FixedLatency) Latency(_, _ string, _ *rand.Rand) time.Duration {
	return time.Duration(f)
}

// UniformLatency draws latencies uniformly from [Min, Max).
type UniformLatency struct {
	Min, Max time.Duration
}

// Latency implements LatencyModel.
func (u UniformLatency) Latency(_, _ string, rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// WANLatency models wide-area latencies with a lognormal distribution,
// approximating the PlanetLab deployment substrate (DESIGN.md §3). The
// default parameters give a median around 60 ms with a tail to ~300 ms.
type WANLatency struct {
	// Mu and Sigma parameterize the lognormal in ln-milliseconds.
	Mu, Sigma float64
	// Floor is the minimum latency.
	Floor time.Duration
}

// DefaultWAN returns the wide-area model used by the deployment
// experiments (Figures 9 and 10).
func DefaultWAN() WANLatency {
	return WANLatency{Mu: 4.1, Sigma: 0.55, Floor: 5 * time.Millisecond}
}

// Latency implements LatencyModel.
func (w WANLatency) Latency(_, _ string, rng *rand.Rand) time.Duration {
	ms := math.Exp(w.Mu + w.Sigma*rng.NormFloat64())
	d := time.Duration(ms * float64(time.Millisecond))
	if d < w.Floor {
		d = w.Floor
	}
	return d
}

// LinkFault overrides delivery behavior on one directed link, layered on
// top of the network-wide LatencyModel and drop rate. It models slow-link
// stragglers: ExtraLatency is added to every modeled delay on the link and
// DropRate loses that fraction of the link's messages (in addition to any
// global loss).
type LinkFault struct {
	ExtraLatency time.Duration
	DropRate     float64
}

type linkKey struct{ from, to string }

// Network is an in-memory message fabric bound to a simulator.
type Network struct {
	sim     *eventsim.Sim
	latency LatencyModel
	// rng is the one stream every message's latency (and drop) draw comes
	// from, so a message added anywhere shifts later latencies under a
	// random model such as WANLatency.
	rng *rand.Rand

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	down      map[string]bool
	dropRate  float64
	partition map[string]int // endpoint -> partition group; 0 = default
	links     map[linkKey]LinkFault
	// measure enables codec-measured byte accounting (on by default);
	// huge batch simulations can switch it off to skip the encode cost.
	measure bool

	delivered uint64
	dropped   uint64
	bytes     uint64
}

// New creates a network on the given simulator with the given latency
// model.
func New(sim *eventsim.Sim, latency LatencyModel) *Network {
	return &Network{
		sim:       sim,
		latency:   latency,
		rng:       sim.RNG("simnet"),
		endpoints: make(map[string]*Endpoint),
		down:      make(map[string]bool),
		partition: make(map[string]int),
		links:     make(map[linkKey]LinkFault),
		measure:   true,
	}
}

// SetByteAccounting toggles codec-measured byte accounting. It is on by
// default; the largest batch simulations can disable it to avoid encoding
// every message just for its size.
func (n *Network) SetByteAccounting(enabled bool) {
	n.mu.Lock()
	n.measure = enabled
	n.mu.Unlock()
}

// Endpoint is one attachment point on the network. It implements
// pastry.Transport for the node that owns it; the bytes it sends count
// toward the network-wide total (Network.Bytes).
type Endpoint struct {
	net     *Network
	name    string
	deliver func(pastry.Message)
}

// Attach registers an endpoint under the given name (the Addr.Endpoint
// string) delivering inbound messages to the given function.
func (n *Network) Attach(name string, deliver func(pastry.Message)) *Endpoint {
	ep := &Endpoint{net: n, name: name, deliver: deliver}
	n.mu.Lock()
	n.endpoints[name] = ep
	n.mu.Unlock()
	return ep
}

// Node attaches an endpoint named addr.Endpoint and builds the overlay
// node that owns it on the network's simulator clock. The node is not yet
// in any ring: Bootstrap, Join or BuildStaticOverlay it.
func (n *Network) Node(addr pastry.Addr) *pastry.Node {
	var node *pastry.Node
	// Deliveries run from the event queue, so node is set before the
	// first one.
	ep := n.Attach(addr.Endpoint, func(m pastry.Message) { node.Deliver(m) })
	node = pastry.NewNode(addr, ep, n.sim)
	return node
}

// Ring builds count nodes named sim://0 .. sim://count-1, drawing their
// identifiers from rng in that order, and converges them with
// pastry.BuildStaticOverlay.
func (n *Network) Ring(count int, rng *rand.Rand) []*pastry.Node {
	nodes := make([]*pastry.Node, count)
	for i := range nodes {
		nodes[i] = n.Node(pastry.Addr{ID: ids.Random(rng), Endpoint: fmt.Sprintf("sim://%d", i)})
	}
	pastry.BuildStaticOverlay(nodes)
	return nodes
}

// Send implements pastry.Transport. The message is delivered through the
// event queue after a modeled latency, or an error is returned if the
// destination is crashed or partitioned away.
func (ep *Endpoint) Send(to pastry.Addr, msg pastry.Message) error {
	n := ep.net
	n.mu.Lock()
	dst, ok := n.endpoints[to.Endpoint]
	crashed := n.down[to.Endpoint] || n.down[ep.name]
	partitioned := n.partition[ep.name] != n.partition[to.Endpoint]
	drop := n.dropRate > 0 && n.rng.Float64() < n.dropRate
	fault, faulty := n.links[linkKey{ep.name, to.Endpoint}]
	if faulty && fault.DropRate > 0 && n.rng.Float64() < fault.DropRate {
		drop = true
	}
	measure := n.measure
	if ok && !crashed && !partitioned && !drop {
		n.delivered++
	} else {
		n.dropped++
	}
	n.mu.Unlock()

	if !ok || crashed || partitioned {
		return pastry.ErrUnreachable
	}
	// A message that left the sender costs wire bytes whether or not the
	// network then loses it.
	if measure {
		size := uint64(codec.Measure(msg))
		n.mu.Lock()
		n.bytes += size
		n.mu.Unlock()
	}
	if drop {
		return nil // silently lost, like UDP loss; sender sees success
	}
	delay := n.latency.Latency(ep.name, to.Endpoint, n.rng)
	if faulty {
		delay += fault.ExtraLatency
	}
	n.sim.AfterFunc(delay, func() {
		n.mu.Lock()
		stillUp := !n.down[to.Endpoint]
		n.mu.Unlock()
		if stillUp {
			dst.deliver(msg)
		}
	})
	return nil
}

// Crash marks a host as failed: sends to and from it error out and queued
// deliveries are suppressed.
func (n *Network) Crash(name string) {
	n.mu.Lock()
	n.down[name] = true
	n.mu.Unlock()
}

// Restart clears the crashed state of a host.
func (n *Network) Restart(name string) {
	n.mu.Lock()
	delete(n.down, name)
	n.mu.Unlock()
}

// SetDropRate makes the network silently lose the given fraction of
// messages (0 disables loss).
func (n *Network) SetDropRate(rate float64) {
	n.mu.Lock()
	n.dropRate = rate
	n.mu.Unlock()
}

// Partition assigns a host to a partition group; hosts in different groups
// cannot exchange messages. Group 0 is the default connected component.
func (n *Network) Partition(name string, group int) {
	n.mu.Lock()
	if group == 0 {
		delete(n.partition, name)
	} else {
		n.partition[name] = group
	}
	n.mu.Unlock()
}

// Group returns the partition group a host is in (0 unless Partition
// moved it).
func (n *Network) Group(name string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partition[name]
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	n.partition = make(map[string]int)
	n.mu.Unlock()
}

// SetLinkFault installs a per-link override on the directed link from →
// to: fault.ExtraLatency is added to the modeled latency of every message
// on the link, and fault.DropRate loses that fraction of the link's
// messages on top of the global drop rate. A zero-value fault clears the
// override.
func (n *Network) SetLinkFault(from, to string, fault LinkFault) {
	n.mu.Lock()
	if fault == (LinkFault{}) {
		delete(n.links, linkKey{from, to})
	} else {
		n.links[linkKey{from, to}] = fault
	}
	n.mu.Unlock()
}

// SetLinkFaultBoth installs the same per-link override in both directions
// between two endpoints, modeling a symmetric slow or lossy path.
func (n *Network) SetLinkFaultBoth(a, b string, fault LinkFault) {
	n.SetLinkFault(a, b, fault)
	n.SetLinkFault(b, a, fault)
}

// ClearLinkFaults removes every per-link override.
func (n *Network) ClearLinkFaults() {
	n.mu.Lock()
	n.links = make(map[linkKey]LinkFault)
	n.mu.Unlock()
}

// Delivered returns the number of messages successfully enqueued for
// delivery.
func (n *Network) Delivered() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// Dropped returns the number of messages lost to crashes, partitions, or
// random loss.
func (n *Network) Dropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.dropped
}

// Bytes returns the codec-measured volume of all traffic that left a
// sender — what the same message flow would have cost on a real wire
// (zero when byte accounting is disabled).
func (n *Network) Bytes() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bytes
}
