package experiments

import (
	"fmt"
	"time"

	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/ids"
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
	Nodes    []*core.Member
	Recorder *Recorder
	Loads    *LoadSampler
	Baseline *Baseline

	// Down[i] marks nodes the harness crashed (CrashNode) or that failed
	// to join.
	Down map[int]bool

	// Subs records every issued subscription, so invariant checkers can
	// audit the durable subscription set against owner-side records.
	Subs []IssuedSub

	opts Options
	// cfg and seams are what every member is assembled from, initial or
	// joined; assemble fills in the overlay and the member's seed.
	cfg   core.Config
	seams core.Seams
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
	// OwnerReplicas sets the additional owner replica count (chaos runs
	// want the replication machinery active; figure runs keep 0).
	OwnerReplicas int
	// LeaseTTL and DelegateThreshold set the corresponding core.Config
	// fields.
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
	h := &Harness{Scale: scale, opts: opts}
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
		h.Baseline = newBaseline(h.Sim, h.Origin, h.Work, h.Recorder, scale.PollInterval, scale.Seed+17)
		return h
	}

	h.Down = make(map[int]bool)
	h.cfg = core.Config{
		Policy:              core.PolicyConfig{Scheme: opts.Scheme, FastTarget: opts.FastTarget},
		PollInterval:        scale.PollInterval,
		MaintenanceInterval: scale.MaintenanceInterval,
		OwnerReplicas:       opts.OwnerReplicas,
		NodeCount:           scale.Nodes,
		LeaseTTL:            opts.LeaseTTL,
		DelegateThreshold:   opts.DelegateThreshold,
	}
	h.seams = core.Seams{
		Clock:    h.Sim,
		Fetcher:  &core.OriginFetcher{Origin: h.Origin, Clock: h.Sim},
		Notifier: opts.Notifier,
		Sink:     h.Recorder,
	}
	if h.seams.Notifier == nil {
		h.seams.Notifier = discardNotifier{}
	}
	for _, overlay := range h.Net.Ring(pastry.DefaultConfig(), scale.Nodes, h.Sim.RNG("harness-node-ids")) {
		h.assemble(overlay)
	}

	if opts.LegacyOn {
		legacyOrigin := buildOrigin(h.Work, h.Sim.Now(), scale.Seed)
		h.Baseline = newBaseline(h.Sim, legacyOrigin, h.Work, h.Recorder, scale.PollInterval, scale.Seed+17)
	}
	return h
}

// assemble builds the next member (an initial ring member or a joiner)
// on overlay and appends it to Nodes.
func (h *Harness) assemble(overlay *pastry.Node) *core.Member {
	cfg := h.cfg
	cfg.Seed = h.Scale.Seed + int64(len(h.Nodes))
	seams := h.seams
	seams.Overlay = overlay
	m, err := core.Assemble(cfg, seams)
	if err != nil {
		panic(err) // only opening a store fails, and harness members have none
	}
	h.Nodes = append(h.Nodes, m)
	return m
}

// Run executes the experiment: subscriptions are issued (at once or
// ramped), nodes start, the load sampler ticks every bucket, and the
// simulator runs for the configured duration.
func (h *Harness) Run() {
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
		h.issueSubscriptions()
	}
	h.Sim.RunFor(h.Scale.Duration)
}

// issueSubscriptions feeds the workload's subscriptions into the cloud.
// Simulation runs issue everything at the start (§5.1: "issue all
// subscriptions at once before collecting performance data"); deployment
// runs ramp them over the first hour (§5.2).
func (h *Harness) issueSubscriptions() {
	rng := h.Sim.RNG("subscription-entry")
	ramp := time.Duration(0)
	if h.opts.RampSubscriptions {
		ramp = time.Hour
	}
	// Issue one Subscribe per subscription with a synthetic handle "u<i>".
	// Entry node is random per subscription, as clients connect to
	// arbitrary nodes.
	subIdx := 0
	for _, ch := range h.Work.Channels {
		for s := 0; s < ch.Subscribers; s++ {
			entryIdx := rng.Intn(len(h.Nodes))
			entry := h.Nodes[entryIdx]
			url := ch.URL
			client := fmt.Sprintf("u%d", subIdx)
			subIdx++
			h.Subs = append(h.Subs, IssuedSub{Client: client, URL: url, Entry: entryIdx})
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
	h.Net.Crash(h.Nodes[i].Self().Endpoint)
	h.Nodes[i].Crash()
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
// fresh node with the given name is appended to Nodes and joins through
// Nodes[via] as a live node joins its seed (core.Member.Join), re-sending
// its join once a second for up to five minutes. Once the join completes
// the node starts and onStarted, if non-nil, receives its index. A node
// whose join fails is crashed, so that Down implies unreachable: a
// half-joined overlay left attached keeps answering routed messages,
// adopting channel state and winning ownership claims no audit that
// trusts Down would see. JoinNode returns an error when the join cannot
// even be sent. Callable from inside the simulation (churn injectors), so
// it never blocks on virtual time.
func (h *Harness) JoinNode(name string, via int, onStarted func(idx int)) error {
	idx := len(h.Nodes)
	m := h.assemble(h.Net.Node(pastry.DefaultConfig(), pastry.Addr{ID: ids.HashString(name), Endpoint: "sim://" + name}))
	var err error
	m.Join([]pastry.Addr{h.Nodes[via].Self()}, 5*time.Minute, func(joined bool) {
		switch {
		case !joined:
			h.CrashNode(idx)
			// Seen by the return below only when no join could be sent.
			err = fmt.Errorf("experiments: %s could not join through node %d", name, via)
		case onStarted != nil:
			onStarted(idx)
		}
	})
	return err
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
