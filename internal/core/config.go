// Package core implements Corona itself: the cooperative-polling
// publish-subscribe system layered on the Pastry overlay (paper §3).
//
// Each Node participates in the overlay, owns the channels whose
// identifiers it is numerically closest to, manages their subscriptions
// and tradeoff factors, polls the channels assigned to wedges it belongs
// to, detects updates, disseminates delta-encoded diffs along the overlay
// DAG, and notifies subscribers through an instant-messaging gateway.
// Polling levels are set by the Honeycomb optimizer running over
// fine-grained local factors and coarse-grained aggregated clusters
// (paper §3.2-§3.3).
//
// The same Node runs under the discrete-event simulator and over real TCP:
// time comes from a clock.Clock, messages from a pastry.Transport, and
// content from a Fetcher. Assemble composes a node from those seams, and
// every node in the tree, live or simulated, is built by it.
package core

import "time"

// tradeoffBins is the number of aggregation clusters per polling level
// (16 in the prototype, §4).
const tradeoffBins = 16

// Config parameterizes a Corona node.
type Config struct {
	// Policy selects the optimization scheme (Table 1) and its target.
	Policy PolicyConfig

	// PollInterval is τ, the per-node polling period (30 min in the
	// paper's simulations, §5.1).
	PollInterval time.Duration

	// MaintenanceInterval is the period of the optimize/maintain/
	// aggregate protocol (1 h in the simulations, 30 min in the
	// deployment).
	MaintenanceInterval time.Duration

	// OwnerReplicas is f, the number of additional owners (closest ring
	// neighbors of the primary owner) holding subscription state for
	// failure tolerance (§3.3).
	OwnerReplicas int

	// NodeCount, when positive, fixes N for the tradeoff formulas.
	// When zero, nodes estimate N from leaf-set density, the way a
	// deployment must (§5.3 "dynamically learns the parameters").
	NodeCount int

	// LeaseTTL enables entry-node leases at owned channels: a subscriber
	// whose entry node has not proved liveness for it within the TTL (or
	// whose entry node was detected dead) has its entry record re-pointed
	// at a surviving node by the maintain pass, once per expiry. Zero or
	// negative disables the sweep (lease refreshes still re-point entries
	// on arrival). Heartbeat-driven expiry applies only to subscribers
	// whose entry nodes heartbeat — client sessions of every framing;
	// simulated and in-process subscribers are touched only by the
	// one-shot re-route when their entry node is detected dead.
	LeaseTTL time.Duration

	// DelegateThreshold enables hot-channel fan-out sharding: when an
	// owned channel's subscriber count reaches the threshold, the owner
	// recruits leaf-set nodes as delegates (one per threshold's worth of
	// subscribers, bounded by the leaf set), partitions the entry records
	// across them, and disseminates one update per delegate instead of
	// one batch per entry node. Zero or negative disables sharding.
	DelegateThreshold int

	// Seed drives the node's local randomness (maintenance phase, ring
	// stabilization draws). Poll phases are not drawn: they follow from
	// the poll slot (polling.go).
	Seed int64
}

// DefaultConfig returns the simulation defaults from §5.1.
func DefaultConfig() Config {
	return Config{
		Policy:              PolicyConfig{Scheme: SchemeLite},
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: time.Hour,
		OwnerReplicas:       2,
	}
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 30 * time.Minute
	}
	if c.MaintenanceInterval <= 0 {
		c.MaintenanceInterval = time.Hour
	}
	if c.OwnerReplicas < 0 {
		c.OwnerReplicas = 0
	}
	return c
}
