// Package experiments encodes every experiment in the paper's evaluation
// (§5): one declarative configuration and runner per figure and table,
// shared by the corona-sim command and the benchmark harness. Each runner
// assembles the full stack — overlay, Corona nodes, synthetic origins,
// workload, legacy baseline — inside the discrete-event simulator and
// returns the series or table rows the paper plots.
package experiments

import "time"

// Scale groups the population and timing parameters of a run.
type Scale struct {
	// Nodes is N, the overlay size.
	Nodes int
	// Channels is M.
	Channels int
	// Subscriptions is the total subscription count.
	Subscriptions int
	// PollInterval is τ.
	PollInterval time.Duration
	// MaintenanceInterval is the protocol period.
	MaintenanceInterval time.Duration
	// Duration is the measured virtual horizon.
	Duration time.Duration
	// WarmUp excludes the initial transient from summary statistics
	// (time series still include it — the paper's Figures 3/4/9/10 show
	// the convergence transient deliberately).
	WarmUp time.Duration
	// Bucket is the reporting granularity of time series.
	Bucket time.Duration
	// Seed drives all randomness.
	Seed int64
}

// PaperSimulation returns the paper's simulation scale (§5.1): 1024 nodes,
// 20,000 channels, 1,000,000 subscriptions, τ=30 min, maintenance 1 h,
// six hours.
func PaperSimulation() Scale {
	return Scale{
		Nodes:               1024,
		Channels:            20000,
		Subscriptions:       1000000,
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: time.Hour,
		Duration:            6 * time.Hour,
		WarmUp:              2 * time.Hour,
		Bucket:              15 * time.Minute,
		Seed:                1,
	}
}

// BenchSimulation returns a laptop-friendly scale that preserves the
// paper's *budget scarcity*: the optimizer's decision structure depends
// on the ratio of the per-channel poll budget (q̄ = subscriptions/channels)
// to the wedge costs (N/bˡ), so q̄ scales with N (q̄/N = 50/1024, the
// paper's ratio). That keeps the level plateaus, the popular/niche
// crossover, and the Fair-family inversions at the same relative
// positions; absolute detection times shift by the N ratio.
func BenchSimulation() Scale {
	return Scale{
		Nodes:               256,
		Channels:            4000,
		Subscriptions:       50000, // q̄ = 12.5 = 50·(256/1024)
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: time.Hour,
		Duration:            6 * time.Hour,
		WarmUp:              2 * time.Hour,
		Bucket:              15 * time.Minute,
		Seed:                1,
	}
}

// TinySimulation is the golden-shape test scale: small enough for unit
// tests, large enough that cooperation is visible.
func TinySimulation() Scale {
	return Scale{
		Nodes:               64,
		Channels:            400,
		Subscriptions:       20000,
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: time.Hour,
		Duration:            6 * time.Hour,
		WarmUp:              2 * time.Hour,
		Bucket:              15 * time.Minute,
		Seed:                1,
	}
}

// PaperDeployment returns the deployment scale (§5.2): 80 nodes, 3,000
// channels, 30,000 subscriptions issued over the first hour, with polling
// and maintenance both at 30 min.
func PaperDeployment() Scale {
	return Scale{
		Nodes:               80,
		Channels:            3000,
		Subscriptions:       30000,
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: 30 * time.Minute,
		Duration:            6 * time.Hour,
		WarmUp:              2 * time.Hour,
		Bucket:              15 * time.Minute,
		Seed:                1,
	}
}

// BenchDeployment is the laptop-scale deployment variant. The node count
// stays at the paper's 80 — wedge sizes, and therefore the achievable
// detection speed-up, depend directly on N — while channels and
// subscriptions shrink proportionally.
func BenchDeployment() Scale {
	return Scale{
		Nodes:               80,
		Channels:            600,
		Subscriptions:       6000,
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: 30 * time.Minute,
		Duration:            6 * time.Hour,
		WarmUp:              2 * time.Hour,
		Bucket:              15 * time.Minute,
		Seed:                1,
	}
}
