package chaos

import (
	"fmt"
	"sort"
	"time"

	"corona/internal/experiments"
	"corona/internal/simnet"
)

// Scenarios returns the shipped fault compositions, in suite order.
func Scenarios() []Scenario {
	return []Scenario{
		HealPartition(),
		RackFailure(),
		Churn(),
		FlashCrowd(),
		SlowLinks(),
		KitchenSink(),
	}
}

// ScenarioByName finds a shipped scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// HealPartition bisects the cloud for a quarter of the run, then heals
// it. Both sides keep operating — owners are claimed on each side for
// channels rooted across the cut — so the heal forces the owner-epoch
// fencing handshake to collapse every dual-ownership back to one owner
// with the union of the subscriber sets.
func HealPartition() Scenario {
	return Scenario{
		Name:        "heal-partition",
		Description: "network bisection for Duration/4, then heal; dual owners must merge by epoch fencing",
		Inject: func(r *Run) {
			at := r.Cfg.Duration / 4
			until := r.Cfg.Duration / 2
			r.H.InjectAt(at, func() {
				for _, i := range r.H.LiveNodes() {
					if r.rng.Intn(2) == 1 {
						r.H.Net.Partition(r.H.Nodes[i].Self().Endpoint, 1)
					}
				}
			})
			r.H.InjectAt(until, func() { r.H.Net.Heal() })
		},
	}
}

// RackFailure crashes a leaf-set-adjacent group of nodes at once — the
// worst case for the replica machinery, since owner replicas live exactly
// in the leaf set. Channels whose entire owner group is inside the rack
// are accounted as lost (no durable copy survives in the sim); everything
// else must re-converge: replica promotion, lease force-expiry of dead
// entry nodes, delegate re-partition.
func RackFailure() Scenario {
	return Scenario{
		Name:        "rack-failure",
		Description: "crash a ring-contiguous rack at Duration/3; survivors must promote, re-point, re-partition",
		Inject: func(r *Run) {
			r.H.InjectAt(r.Cfg.Duration/3, func() {
				live := r.H.LiveNodes()
				rack := 4 + len(live)/512
				if rack > len(live)/4 {
					rack = len(live) / 4
				}
				if rack < 2 {
					rack = 2
				}
				// Ring order: adjacency in identifier space, which is what
				// leaf sets are made of.
				sort.Slice(live, func(a, b int) bool {
					ia := r.H.Nodes[live[a]].Self().ID
					ib := r.H.Nodes[live[b]].Self().ID
					return string(ia[:]) < string(ib[:])
				})
				start := r.rng.Intn(len(live))
				idxs := make([]int, 0, rack)
				for k := 0; k < rack; k++ {
					idxs = append(idxs, live[(start+k)%len(live)])
				}
				r.CrashMany(idxs)
			})
		},
	}
}

// Churn runs a sustained Poisson join/leave process over the middle half
// of the run: leaves fail-stop random live nodes, joins grow the cloud
// through the message-driven join protocol, each through a live node on
// the joiner's side of any active partition. The population floor keeps
// leaves from hollowing out the cloud; joins are capped so the overlay
// stays comparable to the configured scale.
func Churn() Scenario {
	return Scenario{
		Name:        "churn",
		Description: "Poisson join/leave over the middle half of the run",
		Inject: func(r *Run) {
			start := r.Cfg.Duration / 4
			window := r.Cfg.Duration / 2
			mean := r.Cfg.Duration / 16 // ~8 events over the window
			floor := r.Cfg.Nodes * 3 / 4
			ceil := r.Cfg.Nodes + r.Cfg.Nodes/4
			joined := 0
			r.H.InjectAt(start, func() {
				deadline := r.H.Sim.Now().Add(window)
				var next func()
				next = func() {
					if !r.H.Sim.Now().Before(deadline) {
						return
					}
					live := r.H.LiveNodes()
					join := r.rng.Intn(2) == 0
					if len(live) <= floor {
						join = true
					}
					if len(r.H.Nodes) >= ceil {
						join = false
					}
					if join {
						joined++
						name := fmt.Sprintf("churn%d", joined)
						_ = r.H.JoinNode(name, r.pickLiveNear("sim://"+name), nil)
					} else if len(live) > floor {
						r.CrashMany([]int{r.pickLive()})
					}
					delay := time.Duration(r.rng.ExpFloat64() * float64(mean))
					if delay < time.Second {
						delay = time.Second
					}
					r.H.InjectAt(delay, next)
				}
				next()
			})
		},
	}
}

// FlashCrowd bursts a crowd of new subscribers onto the hottest channel —
// several times the delegation threshold, spread over five minutes — so
// the owner must recruit delegates and re-partition under load. The new
// subscriptions are recorded in the audit set: every crowd member is
// checked for black-holing and delivery like the seed workload. Each
// crowd member re-asserts its subscription a few times, the way a real
// SDK re-subscribes until notifications confirm it took: routed messages
// are fire-and-forget, so a subscribe issued into an active fault (the
// kitchen-sink composition lands the crowd mid-partition) can be dropped
// at a cut forwarding hop, and a one-shot subscribe would then be
// audited as black-holed even though no component ever held it.
func FlashCrowd() Scenario {
	return Scenario{
		Name:        "flash-crowd",
		Description: "subscription burst of 4x DelegateThreshold on the hottest channel",
		Inject: func(r *Run) {
			r.H.InjectAt(r.Cfg.Duration/4, func() {
				url := r.H.Work.Channels[0].URL
				burst := 4 * r.Cfg.DelegateThreshold
				over := 5 * time.Minute
				for k := 0; k < burst; k++ {
					client := fmt.Sprintf("fc%d", k)
					at := time.Duration(float64(over) * float64(k) / float64(burst))
					r.H.InjectAt(at, func() {
						entry := r.pickLive()
						r.H.Subs = append(r.H.Subs, experiments.IssuedSub{Client: client, URL: url, Entry: entry})
						r.H.Nodes[entry].Subscribe(client, url)
						for retry := 1; retry <= 3; retry++ {
							r.H.InjectAt(time.Duration(retry)*r.Cfg.PollInterval, func() {
								r.H.Nodes[r.pickLive()].Subscribe(client, url)
							})
						}
					})
				}
			})
		},
	}
}

// SlowLinks degrades a straggler set: each straggler's links to a handful
// of random peers gain seconds of extra latency and heavy loss for a
// quarter of the run. Lost maintenance traffic must be repaired by later
// rounds once the links clear.
func SlowLinks() Scenario {
	return Scenario{
		Name:        "slow-links",
		Description: "10% stragglers with 2-8s extra latency and 30% loss on links to random peers",
		Inject: func(r *Run) {
			at := r.Cfg.Duration / 4
			until := r.Cfg.Duration / 2
			r.H.InjectAt(at, func() {
				live := r.H.LiveNodes()
				stragglers := len(live) / 10
				if stragglers < 2 {
					stragglers = 2
				}
				for s := 0; s < stragglers; s++ {
					from := live[r.rng.Intn(len(live))]
					for p := 0; p < 4; p++ {
						to := live[r.rng.Intn(len(live))]
						if to == from {
							continue
						}
						r.H.Net.SetLinkFaultBoth(r.H.Nodes[from].Self().Endpoint, r.H.Nodes[to].Self().Endpoint, simnet.LinkFault{
							ExtraLatency: 2*time.Second + time.Duration(r.rng.Int63n(int64(6*time.Second))),
							DropRate:     0.3,
						})
					}
				}
			})
			r.H.InjectAt(until, func() { r.H.Net.ClearLinkFaults() })
		},
	}
}

// KitchenSink composes everything at once: a partition that heals, churn
// throughout, a flash crowd landing mid-partition, and slow links over
// the heal — the "any reachable bad state" stress the self-stabilization
// anchor asks for.
func KitchenSink() Scenario {
	return Scenario{
		Name:        "kitchen-sink",
		Description: "partition + churn + flash crowd + slow links, overlapping",
		Inject: func(r *Run) {
			HealPartition().Inject(r)
			Churn().Inject(r)
			FlashCrowd().Inject(r)
			SlowLinks().Inject(r)
		},
	}
}
