package core

import (
	"fmt"
	"math"
	"time"

	"corona/internal/honeycomb"
	"corona/internal/ids"
)

// Scheme identifies one of the optimization problems of Table 1.
type Scheme int

// The five schemes evaluated in the paper.
const (
	// SchemeLite minimizes average update detection time while bounding
	// total content-server load to what legacy clients would impose.
	SchemeLite Scheme = iota
	// SchemeFast minimizes content-server load while achieving a target
	// average update detection time.
	SchemeFast
	// SchemeFair minimizes detection time relative to each channel's
	// update interval (ratio metric), bounding load.
	SchemeFair
	// SchemeFairSqrt is SchemeFair with a square-root weight on the
	// latency ratio, damping the bias against rarely-changing channels.
	SchemeFairSqrt
	// SchemeFairLog is SchemeFair with a logarithmic weight.
	SchemeFairLog
)

// String names the scheme the way the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeLite:
		return "Corona-Lite"
	case SchemeFast:
		return "Corona-Fast"
	case SchemeFair:
		return "Corona-Fair"
	case SchemeFairSqrt:
		return "Corona-Fair-Sqrt"
	case SchemeFairLog:
		return "Corona-Fair-Log"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// PolicyConfig selects a scheme and its parameters.
type PolicyConfig struct {
	// Scheme is the optimization problem to solve.
	Scheme Scheme
	// FastTarget is T, the target average update detection time for
	// SchemeFast (30 s in the paper's simulations).
	FastTarget time.Duration
}

// TradeoffEnv captures the system-wide quantities the tradeoff formulas
// need: N, τ, and the base level K (b is ids.Radix).
type TradeoffEnv struct {
	// Nodes is N, the (estimated) overlay size.
	Nodes int
	// PollInterval is τ.
	PollInterval time.Duration
	// MaxLevel is K = ceil(log_b N), the owner-only level.
	MaxLevel int
}

// Pollers returns the expected wedge size N/bˡ at a level, floored at one
// (the owner always polls).
func (env TradeoffEnv) Pollers(level int) float64 {
	p := float64(env.Nodes)
	for i := 0; i < level; i++ {
		p /= ids.Radix
	}
	if p < 1 {
		p = 1
	}
	return p
}

// DetectionTime returns the expected update detection latency at a level:
// τ/2 divided by the number of cooperating pollers (paper §3.1). The
// figure holds because the pollers split τ into equal gaps (poll slots,
// polling.go); with independent random phases n pollers would wait
// τ/(n+1) on average instead.
func (env TradeoffEnv) DetectionTime(level int) time.Duration {
	return time.Duration(float64(env.PollInterval) / 2 / env.Pollers(level))
}

// ChannelTradeoff is the per-channel input to entry construction.
type ChannelTradeoff struct {
	// Q is the subscriber count qᵢ.
	Q float64
	// SNorm is the content size sᵢ normalized to a mean of 1, keeping
	// the load constraint in poll units (DESIGN.md §2.5).
	SNorm float64
	// U is the estimated update interval uᵢ.
	U time.Duration
	// MinLevel/MaxLevel clamp the feasible range. Orphan channels —
	// those whose owner shares fewer than MaxLevel-1 prefix digits with
	// the channel identifier, so the owner cannot start the one-level-
	// at-a-time wedge recruitment ladder (§3.3) — pin both to the base
	// level and are folded into the slack cluster (§4).
	MinLevel, MaxLevel int
}

// fairWeight computes the per-channel weight the Fair family places on
// detection time: τ/u for Fair, sublinear transforms for the Sqrt and Log
// variants (§3.1: "a non-linear metric dampens the tendency ... to punish
// slow-changing yet popular feeds").
func fairWeight(s Scheme, tau, u float64) float64 {
	if u <= 0 {
		u = 1
	}
	switch s {
	case SchemeFair:
		return tau / u
	case SchemeFairSqrt:
		return math.Sqrt(tau / u)
	case SchemeFairLog:
		lu := math.Log(u)
		if lu < 1 {
			lu = 1
		}
		lt := math.Log(tau)
		if lt < 1 {
			lt = 1
		}
		return lt / lu
	default:
		return 1
	}
}

// BuildEntry constructs the Honeycomb entry for one channel under the
// given policy. For load-bounded schemes (Lite, Fair*) F is the weighted
// detection metric and G the per-τ poll load; Fast swaps the roles
// (minimize load subject to a performance bound).
func BuildEntry(p PolicyConfig, env TradeoffEnv, ch ChannelTradeoff, key any) honeycomb.Entry {
	maxLevel := ch.MaxLevel
	if maxLevel <= 0 || maxLevel > env.MaxLevel {
		maxLevel = env.MaxLevel
	}
	minLevel := ch.MinLevel
	if minLevel < 0 {
		minLevel = 0
	}
	if minLevel > maxLevel {
		minLevel = maxLevel
	}
	perf := make([]float64, maxLevel+1)
	load := make([]float64, maxLevel+1)
	tau := env.PollInterval.Seconds()
	w := 1.0
	if p.Scheme == SchemeFair || p.Scheme == SchemeFairSqrt || p.Scheme == SchemeFairLog {
		w = fairWeight(p.Scheme, tau, ch.U.Seconds())
	}
	s := ch.SNorm
	if s <= 0 {
		s = 1
	}
	q := ch.Q
	if q < 0 {
		q = 0
	}
	for l := 0; l <= maxLevel; l++ {
		det := env.DetectionTime(l).Seconds()
		perf[l] = q * w * det
		load[l] = s * env.Pollers(l)
	}
	e := honeycomb.Entry{Key: key, Weight: 1, MinLevel: minLevel, MaxLevel: maxLevel}
	if p.Scheme == SchemeFast {
		e.F, e.G = load, perf
	} else {
		e.F, e.G = perf, load
	}
	return e
}

// Budget computes the constraint bound T for the policy given the global
// totals (from fine-grained local knowledge plus aggregated clusters).
//
//   - Load-bounded schemes: T = Σqᵢ, the poll budget legacy clients would
//     impose per τ (Table 1). slackLoad — the load already pinned by
//     orphan channels — is subtracted, the correction the prototype
//     applies before optimization (§4).
//   - Fast: T = target·Σqᵢ, the aggregate detection-time budget.
func Budget(p PolicyConfig, totalQ, slackLoad float64) float64 {
	switch p.Scheme {
	case SchemeFast:
		target := p.FastTarget.Seconds()
		if target <= 0 {
			target = 30 // the paper's example target
		}
		return target * totalQ
	default:
		b := totalQ - slackLoad
		if b < 0 {
			b = 0
		}
		return b
	}
}
