package core

import (
	"time"

	"corona/internal/diffengine"
	"corona/internal/pastry"
)

// rssExtractor is the shared difference-engine profile for micronews
// documents; extraction is stateless so one instance serves all channels.
var rssExtractor = diffengine.RSSProfile()

// startPollingLocked begins the periodic poll loop for a channel with a
// random initial phase, so polls by different wedge members spread evenly
// over the polling interval (paper §3.3: "it waits for a random interval
// of time between 0 and the polling interval").
func (n *Node) startPollingLocked(ch *channelState) {
	if ch.polling || n.stopped {
		return
	}
	ch.polling = true
	phase := time.Duration(n.rng.Int63n(int64(n.cfg.PollInterval)))
	ch.pollTimer = n.clk.AfterFunc(phase, func() { n.pollChannel(ch) })
}

// stopPollingLocked halts the poll loop.
func (n *Node) stopPollingLocked(ch *channelState) {
	if !ch.polling {
		return
	}
	ch.polling = false
	if ch.pollTimer != nil {
		ch.pollTimer.Stop()
		ch.pollTimer = nil
	}
}

// pollChannel performs one poll and reschedules the next.
func (n *Node) pollChannel(ch *channelState) {
	n.mu.Lock()
	if !ch.polling || n.stopped {
		n.mu.Unlock()
		return
	}
	// Reschedule first so a panic in handling cannot silently stop the
	// loop, and so poll cadence is independent of processing time.
	ch.pollTimer = n.clk.AfterFunc(n.cfg.PollInterval, func() { n.pollChannel(ch) })
	n.stats.PollsIssued++
	have := ch.lastVersion
	url := ch.url
	n.mu.Unlock()

	res, err := n.fetcher.Fetch(url, have)
	if err != nil {
		// Origin unreachable this round; keep polling.
		n.mu.Lock()
		n.stats.PollErrors++
		n.mu.Unlock()
		return
	}
	if res.Modified && res.Version > have {
		n.updateDetected(ch, fetchedUpdate{
			Version:      res.Version,
			Bytes:        res.Bytes,
			Body:         res.Body,
			HasTimestamp: true, // simulated origins expose modification versions
		})
	}
	n.fetcher.ReleaseBody(res.Body)
}

// updateDetected runs when this node's own poll observed a fresh version.
func (n *Node) updateDetected(ch *channelState, res fetchedUpdate) {
	now := n.now()

	var diffText string
	var diffBytes int
	if n.cfg.ContentMode && res.Body != nil {
		// Run the difference engine over extracted core content; only
		// germane changes disseminate (§3.4). The diff names as its base
		// the version of the content it was computed against, which may
		// trail lastVersion: replicate pushes, delegate notifies and
		// restarts raise lastVersion alone.
		newContent := rssExtractor.ExtractBytes(res.Body)
		n.mu.Lock()
		old, oldVersion := ch.content, ch.contentVersion
		if res.Version > oldVersion {
			ch.content, ch.contentVersion = newContent, res.Version
		}
		n.mu.Unlock()
		if res.Version <= oldVersion {
			return // raced with dissemination
		}
		d := diffengine.Compute(old, newContent, oldVersion, res.Version)
		if d.Empty() && oldVersion > 0 {
			// Superficial churn only: remember the version, no dissemination.
			n.mu.Lock()
			if res.Version > ch.lastVersion {
				ch.lastVersion = res.Version
			}
			n.mu.Unlock()
			return
		}
		diffText = diffengine.Encode(d)
		diffBytes = d.WireSize()
	} else {
		diffBytes = res.Bytes / 15 // delta ≈ 6.8% of content (survey [19])
	}

	n.mu.Lock()
	if res.Version <= ch.lastVersion {
		n.mu.Unlock()
		return // raced with dissemination
	}
	ch.lastVersion = res.Version
	ch.est.observe(now)
	level := ch.level
	if level < 0 {
		level = n.env().MaxLevel
	}
	isOwner := ch.isOwner
	var claimEpoch uint64
	if isOwner {
		// Owner-originated dissemination carries the fencing epoch, so a
		// stale co-owner learns of its demotion from the answer itself.
		claimEpoch = ch.ownerEpoch
	}
	n.stats.UpdatesDetected++
	n.emitVersionLocked(ch)
	n.mu.Unlock()

	if n.sink != nil {
		n.sink.UpdateDetected(ch.url, res.Version, now)
	}

	// Share the diff with the rest of the wedge along the DAG (§3.4).
	update := &updateMsg{
		URL:        ch.url,
		Version:    res.Version,
		Diff:       diffText,
		Bytes:      diffBytes,
		OwnerEpoch: claimEpoch,
	}
	if claimEpoch > 0 {
		update.Owner = n.Self()
	}
	n.sendToWedge(ch.id, ch.url, level, msgUpdate, nil, update)

	switch {
	case isOwner:
		n.notifySubscribers(ch, res.Version, diffText, now)
	case !res.HasTimestamp:
		// Channels without reliable server timestamps get their version
		// assigned by the primary owner; report the observation (§3.4).
		n.overlay.Route(ch.id, msgReport, &reportMsg{
			URL:             ch.url,
			ObservedVersion: res.Version,
			Diff:            diffText,
			Bytes:           diffBytes,
		})
	default:
		// The owner may lie across a digit boundary outside the wedge;
		// route it a copy so subscribers are notified. Owners
		// deduplicate by version, so the common case (owner already in
		// the wedge) costs one redundant message at most. Delivery is
		// best-effort either way: the owner's own poll is the backstop.
		n.overlay.Route(ch.id, msgUpdate, update)
	}
}

// fetchedUpdate narrows webserver.FetchResult plus timestamp provenance.
type fetchedUpdate struct {
	Version      uint64
	Bytes        int
	Body         []byte
	HasTimestamp bool
}

// handleUpdate processes a diff disseminated by another wedge member.
// An update carrying a non-zero OwnerEpoch is also an ownership claim:
// a node still flying a stale isOwner flag demotes on receipt of a
// winning claim — it stops answering polls immediately instead of
// waiting for its next IsRoot self-check — and a live owner answers a
// stale claim with a counter-push so the stale answerer demotes too.
func (n *Node) handleUpdate(msg pastry.Message) {
	p, ok := msg.Payload.(*updateMsg)
	if !ok {
		return
	}
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	var counter *replicateMsg
	var handoff []replicatedSub
	// The claimant is named in the payload, NOT taken from the envelope:
	// wedge forwarding re-broadcasts updates with From rewritten to the
	// forwarding member, which must neither decide the tie-break nor
	// receive the counter-push.
	claimant := p.Owner
	if p.OwnerEpoch > 0 && !claimant.IsZero() && claimant.ID != n.Self().ID {
		if n.claimWinsLocked(ch, p.OwnerEpoch, claimant, true) {
			if ch.isOwner {
				// Updates carry no subscriber state; hand everything we
				// hold back through the subscribe path so the winner ends
				// up with the union (owners deduplicate by identity).
				handoff = handoffMissingLocked(ch, nil)
				n.demoteLocked(ch, false)
				// Journal the surrender like every other demotion path,
				// or a restart would resurrect Owner=true plus the stale
				// subscriber set and reopen the dual-owner window.
				n.emitMetaLocked(ch, true)
			}
			if p.OwnerEpoch > ch.ownerEpoch {
				ch.ownerEpoch = p.OwnerEpoch
				n.emitOwnerEpochLocked(ch)
			}
		} else if ch.isOwner {
			counter = n.buildReplicateLocked(ch)
			n.stats.Replication.FullPushes++
		}
	}
	// A copy of an update whose content this node already holds (the
	// second broadcast copy, or the owner's routed backstop copy) skips
	// the diff decode: its diff ends at p.Version, which the content has
	// reached.
	newContent := p.Version > ch.contentVersion
	fresh := p.Version > ch.lastVersion
	if fresh {
		ch.lastVersion = p.Version
		ch.est.observe(n.now())
		n.stats.UpdatesReceived++
		n.emitVersionLocked(ch)
	}
	isOwner := ch.isOwner
	n.mu.Unlock()
	if counter != nil {
		n.overlay.SendDirect(claimant, msgReplicate, counter)
	}
	for _, s := range handoff {
		n.overlay.Route(ch.id, msgSubscribe, &subscribeMsg{URL: ch.url, Client: s.Client, Entry: s.Entry})
	}
	// A diff against the content this node holds moves it forward even
	// when the version is not news here: a replicate push may have raised
	// lastVersion before the update carrying the content arrived.
	if n.cfg.ContentMode && p.Diff != "" && newContent {
		n.applyDiff(ch, p.Diff)
	}
	if !fresh {
		return
	}
	// Owners notify their subscribers when the update reaches them via
	// dissemination rather than their own poll. Updates carry no
	// detection timestamp, so the receipt time anchors the latency
	// stages — the dissemination hop before it is not counted.
	if isOwner && msg.From.ID != n.Self().ID {
		n.notifySubscribers(ch, p.Version, p.Diff, n.now())
	}
}

// decodeDiff is diffengine.Decode, a variable so tests can count the
// decodes applyDiff runs.
var decodeDiff = diffengine.Decode

// applyDiff patches the locally cached core content so this node can
// generate future diffs against the newest version (§3.1: every polling
// node keeps a copy of the latest version). Only a diff whose base is the
// cached content's version applies; others leave the cache as it is.
func (n *Node) applyDiff(ch *channelState, encoded string) {
	d, err := decodeDiff(encoded)
	if err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if d.OldVersion != ch.contentVersion || d.NewVersion <= ch.contentVersion {
		return
	}
	patched, err := d.Apply(ch.content)
	if err != nil {
		// The diff does not fit the content it names as its base: drop
		// the cache; the next poll diffs against nothing.
		ch.content, ch.contentVersion = nil, 0
		return
	}
	ch.content, ch.contentVersion = patched, d.NewVersion
}

// handleReport runs at the primary owner for channels whose versions it
// assigns: redundant simultaneous reports are discarded, fresh ones get a
// version and are re-disseminated (§3.4).
func (n *Node) handleReport(msg pastry.Message) {
	p, ok := msg.Payload.(*reportMsg)
	if !ok {
		return
	}
	n.mu.Lock()
	ch := n.getChannel(p.URL)
	if !ch.isOwner {
		n.mu.Unlock()
		return
	}
	if p.ObservedVersion <= ch.lastVersion {
		n.mu.Unlock()
		return // redundant report
	}
	ch.lastVersion = p.ObservedVersion
	ch.est.observe(n.now())
	level := ch.level
	claimEpoch := ch.ownerEpoch
	n.emitVersionLocked(ch)
	n.mu.Unlock()

	n.overlay.Broadcast(level, msgUpdate, &updateMsg{
		URL: p.URL, Version: p.ObservedVersion, Diff: p.Diff, Bytes: p.Bytes,
		OwnerEpoch: claimEpoch, Owner: n.Self(),
	})
	n.notifySubscribers(ch, p.ObservedVersion, p.Diff, n.now())
}
