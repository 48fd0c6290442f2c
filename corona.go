// Package corona is the public API of the Corona publish-subscribe system
// (Ramasubramanian, Peterson & Sirer, NSDI 2006).
//
// Corona delivers asynchronous update notifications for ordinary web
// content: clients subscribe to URLs, a cloud of cooperating nodes polls
// the content servers, and detected changes are delta-encoded and pushed
// to subscribers. The polling effort per channel is set by a decentralized
// optimizer that resolves the bandwidth/latency tradeoff globally — the
// paper's central contribution.
//
// Two entry points cover the common uses:
//
//   - Simulation: an in-process cloud under a virtual clock, for running
//     hours of protocol time in milliseconds — the quickest way to
//     experiment with the API, and how the paper's figures are
//     regenerated (see internal/experiments).
//   - LiveNode: one overlay node speaking TCP, for deployments; several
//     in one process over loopback make a real-time cluster (see
//     examples/quickstart).
//
// Subscribers of a deployed cloud use the corona/client package: a Go
// SDK over the versioned binary client protocol (internal/clientproto)
// with acknowledged subscriptions, structured notifications, and
// automatic failover across nodes.
package corona

import (
	"fmt"
	"time"

	"corona/internal/clientproto"
	"corona/internal/core"
)

// Scheme selects the optimization policy (paper Table 1).
type Scheme int

// The five schemes the paper evaluates.
const (
	// Lite minimizes average update detection time holding total
	// content-server load to what uncoordinated clients would impose.
	Lite Scheme = iota
	// Fast meets a target average detection time with minimal load.
	Fast
	// Fair weighs detection time by each channel's update rate.
	Fair
	// FairSqrt dampens Fair's bias against rarely-updating channels
	// with a square-root weight.
	FairSqrt
	// FairLog uses a logarithmic weight instead.
	FairLog
)

// String names the scheme as the paper does.
func (s Scheme) String() string { return s.coreScheme().String() }

func (s Scheme) coreScheme() core.Scheme {
	switch s {
	case Fast:
		return core.SchemeFast
	case Fair:
		return core.SchemeFair
	case FairSqrt:
		return core.SchemeFairSqrt
	case FairLog:
		return core.SchemeFairLog
	default:
		return core.SchemeLite
	}
}

// Notification is one update delivered to a subscriber: Client (the
// handle it was addressed to), Channel (the subscribed URL), Version,
// Diff (the delta-encoded change, see internal/diffengine; empty when
// the origin serves no body) and At (the detection time, or the delivery
// time when the update carried none). It is the same value
// the node's client registry delivers and the client protocol carries,
// aliased so the structure cannot drift between the public API and the
// delivery path.
type Notification = clientproto.Notification

// Options configures a Simulation.
type Options struct {
	// Nodes is the cloud size (default 16).
	Nodes int
	// Scheme is the optimization policy (default Lite).
	Scheme Scheme
	// FastTarget is the detection target for the Fast scheme (default
	// 30 s, the paper's example).
	FastTarget time.Duration
	// PollInterval is τ (default 30 min; set seconds for demos).
	PollInterval time.Duration
	// MaintenanceInterval is the protocol period (default 2·τ).
	MaintenanceInterval time.Duration
	// Replicas is f, the owner replication factor (default 2).
	Replicas int
	// DelegateThreshold is the per-channel subscriber count at which a
	// channel owner recruits leaf-set delegates and shards notification
	// fan-out across them, keeping the owner's per-update message count
	// O(delegates) instead of O(entry nodes). Zero or negative disables
	// sharding (the default).
	DelegateThreshold int
	// Seed drives deterministic randomness (default 1).
	Seed int64
}

func (o Options) withDefaults() (Options, error) {
	if o.Nodes == 0 {
		o.Nodes = 16
	}
	if o.Nodes < 1 {
		return o, fmt.Errorf("corona: Nodes must be positive, got %d", o.Nodes)
	}
	if o.PollInterval == 0 {
		o.PollInterval = 30 * time.Minute
	}
	if o.PollInterval < 0 {
		return o, fmt.Errorf("corona: PollInterval must be positive")
	}
	if o.MaintenanceInterval == 0 {
		o.MaintenanceInterval = 2 * o.PollInterval
	}
	if o.FastTarget == 0 {
		o.FastTarget = 30 * time.Second
	}
	if o.Replicas == 0 {
		o.Replicas = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// coreConfig maps the options onto one node's protocol configuration,
// with the given seed. Every node tracks each subscriber by handle and
// fetches and diffs real documents; Nodes is the optimizer's N, zero to
// estimate it from the leaf set. StartLiveNode builds its configuration
// through here too.
func (o Options) coreConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyConfig{Scheme: o.Scheme.coreScheme(), FastTarget: o.FastTarget}
	cfg.PollInterval = o.PollInterval
	cfg.MaintenanceInterval = o.MaintenanceInterval
	cfg.NodeCount = o.Nodes
	cfg.OwnerReplicas = o.Replicas
	cfg.DelegateThreshold = o.DelegateThreshold
	cfg.Seed = seed
	return cfg
}

// ChannelStatus reports the cloud's view of one channel.
type ChannelStatus struct {
	// URL is the channel identity.
	URL string
	// Subscribers is the owner's subscriber count for this channel.
	Subscribers int
	// Level is the current polling level (lower = more pollers).
	Level int
	// Pollers is the number of nodes currently polling the channel.
	Pollers int
	// Delegates is the number of fan-out delegates the owner has
	// recruited for the channel (zero below DelegateThreshold).
	Delegates int
	// Version is the newest version the owner knows of, and
	// ContentVersion that of the content it holds to diff against. Where
	// the origin names its versions, the content trails only until the
	// owner's next poll.
	Version        uint64
	ContentVersion uint64
}

// NodeActivity is one node's cumulative fan-out work, labeled with its
// role for a channel of interest (see ChannelActivity).
type NodeActivity struct {
	// Node is the node's overlay identifier prefix.
	Node string
	// Owner marks the channel's current owner.
	Owner bool
	// Delegate marks a node carrying a fan-out partition for the channel.
	Delegate bool
	// Notifications counts client notifications the node delivered.
	Notifications uint64
	// NotifyBatches counts entry-node notification batches it emitted.
	NotifyBatches uint64
	// DelegatePushes counts delegate disseminations it sent (owner only).
	DelegatePushes uint64
}

// Stats summarizes cloud activity.
type Stats struct {
	// Nodes is the cloud size.
	Nodes int
	// Polls is the total polls issued to content servers.
	Polls uint64
	// BytesServed is the total origin bytes transferred.
	BytesServed uint64
	// UpdatesDetected counts first-hand update detections.
	UpdatesDetected uint64
	// Notifications counts client notifications delivered.
	Notifications uint64
	// WireBytes is the codec-measured overlay traffic volume: what the
	// cloud's message flow would have cost on a real wire.
	WireBytes uint64
	// MessagesDropped counts overlay messages lost in transit — crashed
	// or partitioned hosts, injected loss — or to transport backpressure.
	MessagesDropped uint64
}
