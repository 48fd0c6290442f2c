// Package chaos is the scripted torture suite for the Corona cloud: a
// declarative scenario engine layered on the experiments harness, the
// simnet fault surface, and the discrete-event simulator (ROADMAP item 4).
//
// A Scenario composes fault injectors — network partitions that heal,
// correlated rack failures, sustained Poisson churn, flash-crowd
// subscription bursts, slow-link stragglers — over a timeline of scheduled
// and randomized events driven by the scenario seed. After the fault phase
// the engine runs a bounded convergence loop and then asserts the PR-5/6
// correctness guarantees as machine-checked postconditions (invariants.go):
// exactly one owner per channel, no black-holed subscriber, monotonic
// per-channel versions, exactly-once delivery, and delegate rosters
// consistent with the owner's roster revision. The Self-Stabilizing
// Supervised Pub/Sub line (PAPERS.md) is the theory anchor: from any
// reachable bad state the system must converge — so a scenario that fails
// to converge by its deadline fails loudly, never flakily.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"corona/internal/core"
	"corona/internal/experiments"
)

// Config sets the population, timing, and checking knobs of a chaos run.
type Config struct {
	Nodes         int
	Channels      int
	Subscriptions int
	Seed          int64

	// Duration is the fault phase: the horizon injectors schedule their
	// timelines inside. PollInterval/MaintenanceInterval pace the
	// protocol; UpdateEvery pins every channel's origin update interval
	// so delivery liveness is checkable on all of them.
	Duration            time.Duration
	PollInterval        time.Duration
	MaintenanceInterval time.Duration
	UpdateEvery         time.Duration

	// LeaseTTL, DelegateThreshold, OwnerReplicas configure the PR-5/6
	// machinery under test.
	LeaseTTL          time.Duration
	DelegateThreshold int
	OwnerReplicas     int

	// ConvergeDeadline bounds the post-fault convergence loop: the
	// structural invariants must all hold within this much virtual time
	// of the fault phase ending, or the scenario fails.
	ConvergeDeadline time.Duration

	// CheckpointEvery, when positive, also sweeps the version-monotonicity
	// invariant at quiescent mid-run checkpoints.
	CheckpointEvery time.Duration
}

// CIScale is the configuration `make chaos` and the chaos-smoke CI step
// run: small enough for the race detector, large enough that delegation,
// replication, and multi-hop routing are all active.
func CIScale() Config {
	return Config{
		Nodes:               64,
		Channels:            48,
		Subscriptions:       3000,
		Seed:                1,
		Duration:            2 * time.Hour,
		PollInterval:        10 * time.Minute,
		MaintenanceInterval: 15 * time.Minute,
		UpdateEvery:         20 * time.Minute,
		LeaseTTL:            15 * time.Minute,
		DelegateThreshold:   100,
		OwnerReplicas:       2,
		ConvergeDeadline:    2 * time.Hour,
		CheckpointEvery:     30 * time.Minute,
	}
}

// LongScale is the tagged long-run mode: ≥4096 simulated nodes and ≥10^5
// subscriptions (corona-chaos -scale long; not part of CI).
func LongScale() Config {
	return Config{
		Nodes:               4096,
		Channels:            512,
		Subscriptions:       100000,
		Seed:                1,
		Duration:            2 * time.Hour,
		PollInterval:        30 * time.Minute,
		MaintenanceInterval: 30 * time.Minute,
		UpdateEvery:         30 * time.Minute,
		LeaseTTL:            30 * time.Minute,
		DelegateThreshold:   200,
		OwnerReplicas:       2,
		ConvergeDeadline:    3 * time.Hour,
		CheckpointEvery:     time.Hour,
	}
}

// Scenario is one named fault composition. Inject is called once, before
// the simulation starts, and builds the scenario's event timeline against
// the run's harness (via InjectAt offsets from t=0).
type Scenario struct {
	Name        string
	Description string
	Inject      func(r *Run)
}

// Run is one scenario execution in flight: the assembled harness, the
// delivery audit log, and the accounting the injectors and the invariant
// checker share.
type Run struct {
	Cfg      Config
	Scenario Scenario
	H        *experiments.Harness
	Log      *DeliveryLog

	rng *rand.Rand

	// lost marks channels whose entire owner group (owner + replicas)
	// fail-stopped: with every copy of the in-memory subscription state
	// gone, those subscribers are expectedly unreachable (durable recovery
	// is the live stack's job), so the checker excludes them — and counts
	// them, so silent over-loss would still show up.
	lost map[string]bool

	// verLog tracks the highest LastVersion each node has reported per
	// channel, across checkpoints and convergence rounds, for the
	// monotonicity invariant.
	verLog map[int]map[string]uint64

	violations []Violation
}

// Execute runs one scenario to completion and returns its result.
func Execute(sc Scenario, cfg Config) Result {
	res, _ := execute(sc, cfg)
	return res
}

// execute is Execute that also hands back the run's delivery log.
func execute(sc Scenario, cfg Config) (Result, *DeliveryLog) {
	r := &Run{Cfg: cfg, Scenario: sc, Log: NewDeliveryLog()}
	scale := experiments.Scale{
		Nodes:               cfg.Nodes,
		Channels:            cfg.Channels,
		Subscriptions:       cfg.Subscriptions,
		PollInterval:        cfg.PollInterval,
		MaintenanceInterval: cfg.MaintenanceInterval,
		Duration:            cfg.Duration,
		WarmUp:              cfg.Duration / 4,
		Bucket:              15 * time.Minute,
		Seed:                cfg.Seed,
	}
	opts := experiments.Options{
		OwnerReplicas:     cfg.OwnerReplicas,
		LeaseTTL:          cfg.LeaseTTL,
		DelegateThreshold: cfg.DelegateThreshold,
		UpdateEvery:       cfg.UpdateEvery,
		Notifier:          r.Log,
	}
	//lint:allow wallclock reporting-only: WallTime measures real harness runtime and never feeds simulation state
	start := time.Now()
	r.H = experiments.NewHarness(scale, opts)
	// Virtual-clock latency stamps: deliveries carrying a detection
	// timestamp feed the end-to-end percentiles in the report.
	r.Log.Now = r.H.Sim.Now
	r.H.Net.SetByteAccounting(false)
	r.rng = r.H.Sim.RNG("chaos/" + sc.Name)
	r.lost = make(map[string]bool)
	r.verLog = make(map[int]map[string]uint64)

	if cfg.CheckpointEvery > 0 {
		r.H.EveryCheckpoint(cfg.CheckpointEvery, func(time.Time) {
			r.violations = append(r.violations, r.checkVersions()...)
		})
	}
	sc.Inject(r)
	r.H.Run()

	// Convergence loop: step one maintenance interval at a time until the
	// structural invariants hold on every live node, bounded by the
	// deadline so a scenario that cannot stabilize fails loudly.
	deadline := r.H.Sim.Now().Add(cfg.ConvergeDeadline)
	converged := false
	var structural []Violation
	for {
		structural = r.checkStructural()
		structural = append(structural, r.checkVersions()...)
		if len(structural) == 0 {
			converged = true
			break
		}
		if !r.H.Sim.Now().Before(deadline) {
			break
		}
		step := cfg.MaintenanceInterval
		if remain := deadline.Sub(r.H.Sim.Now()); remain < step {
			step = remain
		}
		r.H.Sim.RunFor(step)
	}
	if !converged {
		r.violations = append(r.violations, structural...)
	}

	// Probe phase: force one more update/poll/notify round through the
	// converged cloud and assert delivery — every expected subscriber of
	// every surviving channel hears about a fresh version exactly once.
	probeViols := r.probe()
	r.violations = append(r.violations, probeViols...)
	r.violations = append(r.violations, r.checkDeliveries()...)
	// The probe traffic itself must not have broken structure (each
	// failed send reaches handlePeerFault: a dead delegate re-partitions,
	// a dead entry node's records are marked for re-pointing — give the
	// repair one maintenance round, then re-assert).
	if post := r.checkStructural(); len(post) > 0 {
		r.H.Sim.RunFor(cfg.MaintenanceInterval + time.Minute)
		r.violations = append(r.violations, r.checkStructural()...)
	}

	live := len(r.H.LiveNodes())
	res := Result{
		Scenario:      sc.Name,
		Seed:          cfg.Seed,
		Nodes:         len(r.H.Nodes),
		LiveNodes:     live,
		Channels:      cfg.Channels,
		Subscriptions: len(r.H.Subs),
		Converged:     converged,
		Violations:    r.violations,
		Deliveries:    r.Log.Total(),
		Duplicates:    r.Log.Duplicates(),
		LostChannels:  len(r.lost),
		//lint:allow wallclock reporting-only: WallTime measures real harness runtime and never feeds simulation state
		WallTime: time.Since(start),
	}
	if p50, ok := r.Log.LatencyQuantile(0.5); ok {
		p99, _ := r.Log.LatencyQuantile(0.99)
		res.DeliveryLatencyP50 = time.Duration(p50 * float64(time.Second))
		res.DeliveryLatencyP99 = time.Duration(p99 * float64(time.Second))
	}
	for _, i := range r.H.LiveNodes() {
		s := r.H.Nodes[i].Stats()
		if s.NotificationsSent > res.PeakOwnerNotifies {
			res.PeakOwnerNotifies = s.NotificationsSent
		}
		if m := s.NotifyBatchesSent + s.DelegateUpdates; m > res.PeakOwnerMsgs {
			res.PeakOwnerMsgs = m
		}
	}
	return res, r.Log
}

// probe runs one fresh update round through the converged cloud and
// asserts liveness: every expected subscriber of every non-lost channel
// receives a notification within the probe window. The window covers one
// origin update plus two poll intervals plus a maintenance round, so a
// missed delivery is a black hole, not a scheduling artifact.
func (r *Run) probe() []Violation {
	r.Log.MarkWindow()
	window := r.Cfg.UpdateEvery + 2*r.Cfg.PollInterval + r.Cfg.MaintenanceInterval
	r.H.Sim.RunFor(window)

	var out []Violation
	for _, sub := range r.H.Subs {
		if r.lost[sub.URL] {
			continue
		}
		if r.Log.WindowCount(sub.Client, sub.URL) == 0 {
			out = append(out, Violation{
				Invariant: "delivery-liveness",
				Channel:   sub.URL,
				Detail:    fmt.Sprintf("client %s received no notification during the %v probe window", sub.Client, window),
			})
		}
	}
	return out
}

// CrashMany fail-stops a set of nodes at once (a rack), first accounting
// which channels lose their entire owner group — every node holding
// owner or replica subscription state — and are therefore expected
// casualties rather than invariant violations.
func (r *Run) CrashMany(idxs []int) {
	crashing := make(map[int]bool, len(idxs))
	held := make(map[string]bool)
	for _, i := range idxs {
		if r.H.Down[i] || crashing[i] {
			continue
		}
		crashing[i] = true
		r.H.Nodes[i].EachChannel(func(cr core.ChannelRecords) {
			if cr.Owner || cr.Replica {
				held[cr.URL] = true
			}
		})
	}
	for i := range crashing {
		r.H.CrashNode(i)
	}
	for url := range held {
		survivor := false
		for _, i := range r.H.LiveNodes() {
			if cr, ok := r.H.Nodes[i].Records(url); ok && (cr.Owner || cr.Replica) {
				survivor = true
				break
			}
		}
		if !survivor {
			r.lost[url] = true
		}
	}
}

// pickLive returns a random live node index.
func (r *Run) pickLive() int {
	live := r.H.LiveNodes()
	return live[r.rng.Intn(len(live))]
}

// pickLiveNear returns a random live node index in endpoint's partition
// group, which a message from endpoint can reach; with none there, any
// live node. Without a partition it draws as pickLive does.
func (r *Run) pickLiveNear(endpoint string) int {
	group := r.H.Net.Group(endpoint)
	var near []int
	for _, i := range r.H.LiveNodes() {
		if r.H.Net.Group(r.H.Nodes[i].Self().Endpoint) == group {
			near = append(near, i)
		}
	}
	if len(near) == 0 {
		return r.pickLive()
	}
	return near[r.rng.Intn(len(near))]
}
