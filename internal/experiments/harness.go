package experiments

import (
	"fmt"
	"time"

	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/legacy"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
	"corona/internal/workload"
)

// Harness assembles the full simulated stack for one experiment run.
type Harness struct {
	Scale    Scale
	Sim      *eventsim.Sim
	Net      *simnet.Network
	Origin   *webserver.Origin
	Work     *workload.Workload
	Nodes    []*core.Node
	Recorder *Recorder
	Loads    *LoadSampler
	Baseline *legacy.Baseline

	// Endpoints[i] is the simnet endpoint name of Nodes[i]; Down[i] marks
	// nodes the harness crashed (CrashNode) or that failed to join.
	Endpoints []string
	Down      map[int]bool

	// Subs records every issued subscription when Options.Identity is set,
	// so invariant checkers can audit the durable subscription set against
	// owner-side records.
	Subs []IssuedSub

	opts     Options
	fetcher  core.Fetcher
	notifier core.Notifier
}

// IssuedSub is one recorded subscription: which client subscribed to which
// channel through which node (an index into Harness.Nodes).
type IssuedSub struct {
	Client string
	URL    string
	Entry  int
}

// Options tunes harness construction beyond the scale parameters.
type Options struct {
	// Scheme selects the Corona policy; ignored when CoronaOff.
	Scheme core.Scheme
	// FastTarget sets Corona-Fast's detection target.
	FastTarget time.Duration
	// CoronaOff builds only the origin + legacy baseline (pure-legacy
	// runs for the comparison series).
	CoronaOff bool
	// LegacyOn additionally runs the legacy baseline alongside Corona on
	// a second, identical origin so both see the same update processes
	// without sharing load accounting.
	LegacyOn bool
	// WANLatency uses the wide-area latency model (deployment
	// experiments); default is a LAN-like fixed latency.
	WANLatency bool
	// RampSubscriptions spreads subscription issue times uniformly over
	// the first hour (deployment, §5.2) instead of issuing all at once
	// (simulation, §5.1).
	RampSubscriptions bool
	// Notifier receives client notifications; nil discards them (the
	// nodes still count them in NotificationsSent).
	Notifier core.Notifier
	// Identity tracks full per-client subscriber identity (entry records,
	// leases, delegation) instead of counting-mode aggregation, and
	// records issued subscriptions in Harness.Subs so invariant checkers
	// can audit them. Figure runs keep counting mode for memory.
	Identity bool
	// OwnerReplicas sets the additional owner replica count (identity
	// chaos runs want the PR-5 replication machinery active; figure runs
	// keep 0).
	OwnerReplicas int
	// LeaseTTL and DelegateThreshold override the corresponding
	// core.Config fields when nonzero.
	LeaseTTL          time.Duration
	DelegateThreshold int
	// UpdateEvery, when positive, pins every channel's update interval
	// instead of sampling the survey distribution (where half the
	// channels never change). Chaos runs use it so delivery liveness is
	// checkable on every channel.
	UpdateEvery time.Duration
}

// discardNotifier is the default sink for notifications: it drops
// them. It must be non-nil, because a node with a nil notifier skips
// the NotificationsSent accounting the figures read.
type discardNotifier struct{}

func (discardNotifier) NotifyBatch([]string, string, uint64, string, time.Time) {}
func (discardNotifier) NotifyCount(string, uint64, int, time.Time)              {}

// legacyOrigin mirrors a workload onto a second origin with identical
// update processes, so Corona and legacy load accounting stay separate
// while updates coincide.
func buildOrigin(w *workload.Workload, start time.Time, seed int64) *webserver.Origin {
	origin := webserver.NewOrigin()
	for i, ch := range w.Channels {
		origin.Host(webserver.ChannelConfig{
			URL:       ch.URL,
			SizeBytes: ch.SizeBytes,
			Process: webserver.PeriodicProcess{
				// Deterministic per-channel phase decorrelates updates
				// across channels without coupling them to the seed of
				// any other component.
				Origin:   start.Add(time.Duration(uint64(seed*1000003+int64(i)*6700417) % uint64(ch.UpdateInterval))),
				Interval: ch.UpdateInterval,
			},
		})
	}
	return origin
}

// NewHarness builds a run. Call Run to execute it.
func NewHarness(scale Scale, opts Options) *Harness {
	h := &Harness{Scale: scale}
	h.Sim = eventsim.New(scale.Seed)
	var latency simnet.LatencyModel = simnet.FixedLatency(10 * time.Millisecond)
	if opts.WANLatency {
		latency = simnet.DefaultWAN()
	}
	h.Net = simnet.New(h.Sim, latency)
	// Figure runs measure network load at the origin, not on the overlay
	// fabric; skip per-message codec measurement to keep paper-scale
	// simulations fast.
	h.Net.SetByteAccounting(false)

	h.Work = workload.Generate(workload.Config{
		Channels:      scale.Channels,
		Subscriptions: scale.Subscriptions,
		ZipfExponent:  0.5,
		Seed:          scale.Seed,
	})
	if opts.UpdateEvery > 0 {
		for i := range h.Work.Channels {
			h.Work.Channels[i].UpdateInterval = opts.UpdateEvery
		}
	}
	h.Origin = buildOrigin(h.Work, h.Sim.Now(), scale.Seed)
	h.Recorder = NewRecorder(h.Work, h.Origin, h.Sim.Now(), scale.WarmUp, scale.Bucket)
	h.Loads = NewLoadSampler(h.Origin, h.Sim.Now(), scale.Bucket)

	if opts.CoronaOff {
		h.Baseline = legacy.New(h.Sim, h.Origin, h.Work, h.Recorder, legacy.Config{
			PollInterval: scale.PollInterval,
			Seed:         scale.Seed + 17,
		})
		return h
	}

	h.opts = opts
	h.Down = make(map[int]bool)
	h.notifier = opts.Notifier
	if h.notifier == nil {
		h.notifier = discardNotifier{}
	}
	h.fetcher = &core.OriginFetcher{Origin: h.Origin, Clock: h.Sim}
	for i, overlay := range h.Net.Ring(pastry.DefaultConfig(), scale.Nodes, h.Sim.RNG("harness-node-ids")) {
		n := core.NewNode(h.nodeConfig(i), overlay, h.Sim, h.fetcher, h.notifier, h.Recorder)
		h.Nodes = append(h.Nodes, n)
		h.Endpoints = append(h.Endpoints, overlay.Self().Endpoint)
	}

	if opts.LegacyOn {
		legacyOrigin := buildOrigin(h.Work, h.Sim.Now(), scale.Seed)
		h.Baseline = legacy.New(h.Sim, legacyOrigin, h.Work, h.Recorder, legacy.Config{
			PollInterval: scale.PollInterval,
			Seed:         scale.Seed + 17,
		})
	}
	return h
}

// nodeConfig builds the core configuration for the i-th node (initial or
// churn-joined) from the harness scale and options.
func (h *Harness) nodeConfig(i int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = core.PolicyConfig{Scheme: h.opts.Scheme, FastTarget: h.opts.FastTarget}
	cfg.PollInterval = h.Scale.PollInterval
	cfg.MaintenanceInterval = h.Scale.MaintenanceInterval
	cfg.NodeCount = h.Scale.Nodes
	cfg.CountSubscribersOnly = !h.opts.Identity
	cfg.OwnerReplicas = h.opts.OwnerReplicas
	cfg.Seed = h.Scale.Seed + int64(i)
	if h.opts.LeaseTTL != 0 {
		cfg.LeaseTTL = h.opts.LeaseTTL
	}
	if h.opts.DelegateThreshold != 0 {
		cfg.DelegateThreshold = h.opts.DelegateThreshold
	}
	return cfg
}

// Run executes the experiment: subscriptions are issued (at once or
// ramped), nodes start, the load sampler ticks every bucket, and the
// simulator runs for the configured duration.
func (h *Harness) Run(opts Options) {
	// Arm the periodic load sampler.
	var tick func()
	tick = func() {
		h.Loads.Sample(h.Sim.Now())
		h.Sim.AfterFunc(h.Scale.Bucket, tick)
	}
	h.Sim.AfterFunc(h.Scale.Bucket, tick)

	if h.Baseline != nil {
		h.Baseline.Start()
	}
	for _, n := range h.Nodes {
		n.Start()
	}
	if len(h.Nodes) > 0 {
		h.issueSubscriptions(opts)
	}
	h.Sim.RunFor(h.Scale.Duration)
}

// issueSubscriptions feeds the workload's subscriptions into the cloud.
// Simulation runs issue everything at the start (§5.1: "issue all
// subscriptions at once before collecting performance data"); deployment
// runs ramp them over the first hour (§5.2).
func (h *Harness) issueSubscriptions(opts Options) {
	rng := h.Sim.RNG("subscription-entry")
	ramp := time.Duration(0)
	if opts.RampSubscriptions {
		ramp = time.Hour
	}
	// In counting mode, per-client identity is irrelevant; issue one
	// Subscribe per subscription with a synthetic handle. Entry node is
	// random per subscription, as clients connect to arbitrary nodes.
	subIdx := 0
	for _, ch := range h.Work.Channels {
		for s := 0; s < ch.Subscribers; s++ {
			entryIdx := rng.Intn(len(h.Nodes))
			entry := h.Nodes[entryIdx]
			url := ch.URL
			client := fmt.Sprintf("u%d", subIdx)
			subIdx++
			if opts.Identity {
				h.Subs = append(h.Subs, IssuedSub{Client: client, URL: url, Entry: entryIdx})
			}
			if ramp == 0 {
				entry.Subscribe(client, url)
				continue
			}
			at := time.Duration(float64(ramp) * float64(subIdx) / float64(h.Work.TotalSubscriptions+1))
			h.Sim.AfterFunc(at, func() { entry.Subscribe(client, url) })
		}
	}
}

// InjectAt schedules a fault-injection (or any other) callback at the
// given offset from the current simulator time. Chaos scenarios use it to
// build their event timelines; it may be called before Run or from inside
// an earlier injection.
func (h *Harness) InjectAt(d time.Duration, fn func()) {
	h.Sim.AfterFunc(d, fn)
}

// EveryCheckpoint arms a recurring callback every interval of virtual
// time, for mid-run invariant checkpoints. The callback re-arms itself
// forever; runs bounded by Sim.RunFor simply stop observing it.
func (h *Harness) EveryCheckpoint(every time.Duration, fn func(now time.Time)) {
	var tick func()
	tick = func() {
		fn(h.Sim.Now())
		h.Sim.AfterFunc(every, tick)
	}
	h.Sim.AfterFunc(every, tick)
}

// CrashNode fail-stops Nodes[i]: its host drops off the network and its
// timers stop. The slot is recorded in Down; crashed nodes never restart
// (recovery from durable state is the live stack's job, not the sim's).
func (h *Harness) CrashNode(i int) {
	if h.Down[i] {
		return
	}
	h.Down[i] = true
	h.Net.Crash(h.Endpoints[i])
	h.Nodes[i].Stop()
}

// LiveNodes returns the indexes of nodes not crashed by CrashNode.
func (h *Harness) LiveNodes() []int {
	live := make([]int, 0, len(h.Nodes))
	for i := range h.Nodes {
		if !h.Down[i] {
			live = append(live, i)
		}
	}
	return live
}

// JoinNode grows the cloud through the message-driven join protocol: a
// fresh node with the given name joins via a live node, and once the join
// completes (polled each virtual second, bounded by joinDeadline) it
// starts and is appended to Nodes/Endpoints; onStarted, if non-nil, then
// receives its index. A node whose join never completes is marked Down.
// Callable from inside the simulation (churn injectors), so it never
// blocks on virtual time.
func (h *Harness) JoinNode(name string, via int, onStarted func(idx int)) error {
	ep := "sim://" + name
	overlay := h.Net.Node(pastry.DefaultConfig(), pastry.Addr{ID: ids.HashString(name), Endpoint: ep})
	idx := len(h.Nodes)
	n := core.NewNode(h.nodeConfig(idx), overlay, h.Sim, h.fetcher, h.notifier, h.Recorder)
	h.Nodes = append(h.Nodes, n)
	h.Endpoints = append(h.Endpoints, ep)
	// abort kills a node whose join never completed. Marking it Down is
	// not enough: the endpoint is already attached to the network and the
	// half-joined overlay keeps answering routed messages — a "dead" node
	// that is actually alive adopts channel state, wins ownership claims,
	// and attracts lease re-points, all invisible to any audit that trusts
	// Down. Down must imply genuinely unreachable.
	abort := func() {
		h.Down[idx] = true
		h.Net.Crash(ep)
		n.Stop()
	}
	if err := overlay.Join(h.Nodes[via].Self()); err != nil {
		abort()
		return err
	}
	const joinDeadline = 5 * time.Minute
	deadline := h.Sim.Now().Add(joinDeadline)
	var wait func()
	wait = func() {
		if overlay.Joined() {
			n.Start()
			if onStarted != nil {
				onStarted(idx)
			}
			return
		}
		if h.Sim.Now().After(deadline) {
			abort()
			return
		}
		h.Sim.AfterFunc(time.Second, wait)
	}
	h.Sim.AfterFunc(time.Second, wait)
	return nil
}

// PollersPerChannel counts, for each channel index, the nodes currently
// polling it (Figure 5's y-axis).
func (h *Harness) PollersPerChannel() []int {
	counts := make([]int, len(h.Work.Channels))
	for _, n := range h.Nodes {
		n.EachPolled(func(url string, level int) {
			if idx, ok := h.Recorder.urlIndex[url]; ok {
				counts[idx]++
			}
		})
	}
	return counts
}

// ModelDetectionMean computes the subscription-weighted mean of the
// assigned-level detection estimate τ/(2·pollers) over all channels,
// counting channels that never updated during the window at their
// would-be detection time — the analytical metric the paper's per-channel
// detection figures reflect (see Table2Row.ModelDetectionSec).
func (h *Harness) ModelDetectionMean() float64 {
	pollers := h.PollersPerChannel()
	var sum, weight float64
	tau := h.Scale.PollInterval.Seconds()
	for i, ch := range h.Work.Channels {
		n := float64(pollers[i])
		if n < 1 {
			n = 1
		}
		q := float64(ch.Subscribers)
		sum += q * tau / 2 / n
		weight += q
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}
