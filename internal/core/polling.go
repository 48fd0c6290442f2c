package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"time"

	"corona/internal/diffengine"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// rssExtractor is the shared difference-engine profile for micronews
// documents; extraction is stateless so one instance serves all channels.
var rssExtractor = diffengine.RSSProfile()

// Poll slots. §3.3 starts each poller after "a random interval of time
// between 0 and the polling interval", but independent random phases
// leave n pollers a mean detection wait of τ/(n+1), not the τ/(2n) of
// §3.1 that the optimizer budgets (TradeoffEnv.DetectionTime). Instead
// each of a channel's m pollers takes a slot k of m and polls at the
// instants t ≡ (h(channel) + k/m)·τ (mod τ) on its clock (virtual on
// simnet, wall time live, where NTP-level skew is small against τ): the
// m pollers split τ into equal gaps, and the channel hash spreads
// different channels over the interval. The pollers are the wedge
// members plus the owner, which keeps polling outside the wedge as the
// level-K fallback. A node whose leaf set spans the wedge knows every
// poller and ranks itself exactly; one that does not uses its
// identifier's position inside the wedge range, which is uniform like
// the random phase it replaces. The slot is cached per channel and
// recomputed only when the channel's level changes and at the
// maintenance tick (reslotPolls).

// ringView is the part of the overlay's routing state a slot is
// computed from: every known peer sorted by identifier, and the leaf
// set's reach (pastry.Node.LeafReach). The node caches one view and
// rebuilds it only when the overlay's generation moves.
type ringView struct {
	seq     uint64 // advances on every rebuild; 0 = never built
	gen     uint64 // the overlay generation the view was built at
	known   []pastry.Addr
	ccw, cw ids.ID
	whole   bool
}

// ringViewLocked returns the cached ring view, rebuilt first if the
// overlay's routing state changed since. Callers hold n.mu.
func (n *Node) ringViewLocked() *ringView {
	if g := n.overlay.Generation(); n.ring.seq == 0 || g != n.ring.gen {
		v := ringView{seq: n.ring.seq + 1, gen: g, known: n.overlay.KnownNodes()}
		v.ccw, v.cw, v.whole = n.overlay.LeafReach()
		n.ring = v
	}
	return &n.ring
}

// assignSlotLocked recomputes the channel's poll slot, unless neither
// its level nor the ring view moved since the last time. Callers hold
// n.mu.
func (n *Node) assignSlotLocked(ch *channelState) {
	ring := n.ringViewLocked()
	if ch.slotSeq == ring.seq && ch.slotLevel == ch.level {
		return
	}
	ch.slotSeq, ch.slotLevel = ring.seq, ch.level
	level := ch.level
	if level < 0 {
		level = n.env().MaxLevel
	}
	rank, pollers := pollRank(n.Self().ID, ch.id, level, ring)
	ch.slotRank, ch.slotPollers = rank, pollers
	var x uint64 // the slot's offset in the interval, in units of 2^-64
	if rank >= 0 {
		x = uint64(rank) * (math.MaxUint64 / uint64(pollers))
	} else {
		x = idBits64(n.Self().ID, 4*level) // 4 bits per hex digit
	}
	x += beUint64(ch.id)
	phase, _ := bits.Mul64(x, uint64(n.cfg.PollInterval))
	ch.slotPhase = time.Duration(phase)
}

// pollRank ranks self among the channel's pollers at a level: the wedge
// members plus the root, which polls as owner wherever it lies. It
// returns self's rank by identifier and the poller count when the leaf
// set spans the wedge (whole ring known, or both leaf-set ends outside a
// wedge that lies between them), and rank -1 with the count of pollers
// known so far otherwise.
func pollRank(self, channel ids.ID, level int, ring *ringView) (rank, pollers int) {
	exact := ring.whole || (level > 0 &&
		!ids.InWedge(ring.ccw, channel, level) && !ids.InWedge(ring.cw, channel, level) &&
		channel.Between(ring.ccw, ring.cw))
	known := ring.known
	inWedge := func(id ids.ID) bool { return ids.InWedge(id, channel, level) }
	// The wedge is a contiguous range of identifiers around the channel,
	// so its known members are a contiguous run of the sorted view.
	lo := sort.Search(len(known), func(i int) bool {
		return known[i].ID.Cmp(channel) > 0 || inWedge(known[i].ID)
	})
	hi := sort.Search(len(known), func(i int) bool {
		return known[i].ID.Cmp(channel) > 0 && !inWedge(known[i].ID)
	})
	at := sort.Search(len(known), func(i int) bool { return known[i].ID.Cmp(self) > 0 })
	pollers = hi - lo
	below := min(max(at-lo, 0), pollers)
	// The root is the channel's ring neighbour on one side or the other,
	// or self; it polls as owner even outside the wedge.
	root, rootDist := self, self.Distance(channel)
	if len(known) > 0 {
		succ := sort.Search(len(known), func(i int) bool { return known[i].ID.Cmp(channel) >= 0 })
		for _, a := range [2]pastry.Addr{known[succ%len(known)], known[(succ+len(known)-1)%len(known)]} {
			d := a.ID.Distance(channel)
			if c := d.Cmp(rootDist); c < 0 || c == 0 && a.ID.Cmp(root) < 0 {
				root, rootDist = a.ID, d
			}
		}
	}
	if root != self && !inWedge(root) {
		pollers++
		if root.Cmp(self) < 0 {
			below++
		}
	}
	selfPolls := root == self || inWedge(self)
	if selfPolls {
		pollers++
	}
	if !exact || !selfPolls {
		return -1, pollers
	}
	return below, pollers
}

// idBits64 returns the 64 bits of id starting at bit offset off, zero
// filled past the end.
func idBits64(id ids.ID, off int) uint64 {
	var buf [9]byte
	copy(buf[:], id[off/8:])
	v := binary.BigEndian.Uint64(buf[:8])
	if s := uint(off % 8); s > 0 {
		v = v<<s | uint64(buf[8])>>(8-s)
	}
	return v
}

// reslotPolls refreshes the slot of every channel this node polls: the
// maintenance tick's pass, which picks up ring changes and the owner's
// own level moves.
func (n *Node) reslotPolls() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ch := range n.channels {
		if ch.polling {
			n.assignSlotLocked(ch)
		}
	}
}

// nextSlotDelay returns the wait from now until the first instant at
// least minGap away whose offset in the interval tau is phase. With
// minGap = tau/2 successive polls stay between tau/2 and 3tau/2 apart
// however the slot moves, and a timer that fires late does not carry its
// lateness into the next poll.
func nextSlotDelay(now time.Time, tau, phase, minGap time.Duration) time.Duration {
	t := int64(tau)
	off := (int64(phase) - now.Add(minGap).UnixNano()%t) % t
	if off < 0 {
		off += t
	}
	return minGap + time.Duration(off)
}

// startPollingLocked begins the channel's poll loop at its first slot
// instant, or refreshes the slot of a loop already running. Callers hold
// n.mu.
func (n *Node) startPollingLocked(ch *channelState) {
	if n.stopped {
		return
	}
	n.assignSlotLocked(ch)
	if ch.polling {
		return
	}
	ch.polling = true
	d := nextSlotDelay(n.now(), n.cfg.PollInterval, ch.slotPhase, 0)
	if ch.pollTimer == nil {
		ch.pollTimer = n.clk.AfterFunc(d, func() { n.pollChannel(ch) })
		return
	}
	ch.pollTimer.Reset(d)
}

// stopPollingLocked halts the poll loop.
func (n *Node) stopPollingLocked(ch *channelState) {
	if !ch.polling {
		return
	}
	ch.polling = false
	if ch.pollTimer != nil {
		ch.pollTimer.Stop()
	}
}

// schedulePollLocked re-arms the channel's one timer for its next slot
// instant. It runs once per poll, so it uses the cached slot and
// allocates nothing. Callers hold n.mu.
func (n *Node) schedulePollLocked(ch *channelState) {
	tau := n.cfg.PollInterval
	ch.pollTimer.Reset(nextSlotDelay(n.now(), tau, ch.slotPhase, tau/2))
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
	n.schedulePollLocked(ch)
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
		n.updateDetected(ch, fetchedUpdate{Version: res.Version, Bytes: res.Bytes, Body: res.Body})
	}
	n.fetcher.ReleaseBody(res.Body)
}

// updateDetected runs when this node's own poll observed a fresh version.
func (n *Node) updateDetected(ch *channelState, res fetchedUpdate) {
	now := n.now()

	var diffText string
	var diffBytes int
	if res.Body != nil {
		// Run the difference engine over extracted core content; only
		// germane changes disseminate (§3.4). The diff names as its base
		// the version of the content it was computed against, which may
		// trail lastVersion: replicate pushes, delegate notifies and
		// restarts raise lastVersion alone. The new content shares its
		// unchanged lines with the old.
		n.mu.Lock()
		old, oldVersion := ch.content, ch.contentVersion
		n.mu.Unlock()
		if res.Version <= oldVersion {
			return // raced with dissemination
		}
		newContent, d := rssExtractor.ExtractDiff(old, res.Body, oldVersion, res.Version)
		n.mu.Lock()
		stale := res.Version <= ch.contentVersion
		if !stale {
			ch.content, ch.contentVersion = newContent, res.Version
		}
		n.mu.Unlock()
		if stale {
			return // raced with dissemination
		}
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

	if isOwner {
		n.notifySubscribers(ch, res.Version, diffText, now)
		return
	}
	// The owner may lie across a digit boundary outside the wedge; route
	// it a copy so subscribers are notified. Owners deduplicate by
	// version, so the common case (owner already in the wedge) costs one
	// redundant message at most. Delivery is best-effort either way: the
	// owner's own poll is the backstop.
	n.overlay.Route(ch.id, msgUpdate, update)
}

// fetchedUpdate narrows webserver.FetchResult to what detection uses.
// The fetcher names the version: the origin's (an ETag, a simulated
// version) or have+1.
type fetchedUpdate struct {
	Version uint64
	Bytes   int
	Body    []byte
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
	if p.Diff != "" && newContent {
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
// cached content's version applies; others leave the cache as it is, are
// never decoded past their header, and count in
// Stats.DiffBaseMismatches when they would have moved the content on.
func (n *Node) applyDiff(ch *channelState, encoded string) {
	oldV, newV, err := diffengine.Versions(encoded)
	if err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if newV <= ch.contentVersion {
		return
	}
	if oldV != ch.contentVersion {
		n.stats.DiffBaseMismatches++
		return
	}
	// Decoding costs no more than the Apply below, which holds the lock too.
	d, err := decodeDiff(encoded)
	if err != nil {
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
