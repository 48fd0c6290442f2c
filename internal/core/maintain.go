package core

import (
	"maps"
	"slices"
	"sort"
	"time"

	"corona/internal/honeycomb"
	"corona/internal/ids"
	"corona/internal/pastry"
)

// maintenanceTick runs the periodic protocol: an optimization phase over
// local fine-grained factors plus aggregated clusters, a maintenance phase
// conveying level changes to routing contacts, and an aggregation phase
// exchanging cluster summaries (paper §3.3: "In practice, the three phases
// occur concurrently at a node with aggregation data piggy-backed on
// maintenance messages").
func (n *Node) maintenanceTick() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.maintTimer.Reset(n.cfg.MaintenanceInterval)
	n.stats.MaintenanceRounds++
	draw := n.rng.Int()
	n.mu.Unlock()

	// Ring-level anti-entropy first: ownership placement below is judged
	// against the ring view this exchange keeps honest.
	n.overlay.Stabilize(draw)
	n.ownerAntiEntropy()
	n.leaseSweep()
	n.delegateMaintain()
	n.optimizePhase()
	n.reslotPolls()
	n.aggregationPhase()
}

// ownedTradeoffLocked snapshots the tradeoff factors of an owned channel.
func (n *Node) ownedTradeoffLocked(ch *channelState, env TradeoffEnv, meanSize float64) ChannelTradeoff {
	s := 1.0
	if meanSize > 0 && ch.sizeBytes > 0 {
		s = float64(ch.sizeBytes) / meanSize
	}
	t := ChannelTradeoff{
		Q:        float64(ch.subs.count),
		SNorm:    s,
		U:        ch.est.interval(),
		MinLevel: 0,
		MaxLevel: env.MaxLevel,
	}
	if ch.orphan {
		t.MinLevel, t.MaxLevel = env.MaxLevel, env.MaxLevel
	}
	return t
}

// optimizePhase decides polling levels for the channels this node owns.
// The solver input is the node's fine-grained knowledge (its owned
// channels) plus the coarse-grained cluster summary of everyone else's
// (§3.2). Level changes move one step per round and are conveyed to the
// affected wedge via poll-control broadcasts (§3.3).
func (n *Node) optimizePhase() {
	env := n.env()

	n.mu.Lock()
	owned := n.ownedSortedLocked()
	meanSize := meanSizeOf(owned)

	// Remote knowledge: merge the cluster aggregates most recently
	// received from routing contacts. Combined, they summarize all
	// channels owned outside this node's subtree.
	remote := honeycomb.NewClusterSet(tradeoffBins, env.MaxLevel)
	for _, row := range n.clusterIn {
		mergeRow(remote, row)
	}

	entries := make([]honeycomb.Entry, 0, len(owned)+32)
	for i, ch := range owned {
		tr := n.ownedTradeoffLocked(ch, env, meanSize)
		entries = append(entries, BuildEntry(n.cfg.Policy, env, tr, i))
	}
	totalQ := 0.0
	for _, ch := range owned {
		totalQ += float64(ch.subs.count)
	}
	totalQ += remote.TotalQ() + remote.Slack.SumQ
	slackLoad := remote.Slack.Count // orphans each pin one owner poll
	for _, ch := range owned {
		if ch.orphan {
			slackLoad++
		}
	}
	for _, c := range remote.NonEmpty() {
		// Cluster sizes were normalized by their producers; use them
		// directly. Orphans never reach regular clusters (they ride the
		// slack cluster), so remote entries are unconstrained.
		tr := ChannelTradeoff{
			Q:     c.MeanQ(),
			SNorm: c.MeanS(),
			U:     durationSeconds(c.MeanU()),
		}
		e := BuildEntry(n.cfg.Policy, env, tr, nil)
		e.Weight = c.Count
		entries = append(entries, e)
	}
	n.mu.Unlock()

	if len(entries) == 0 {
		return
	}
	budget := Budget(n.cfg.Policy, totalQ, slackLoad)
	sol := honeycomb.Solve(entries, budget)

	// Apply: move each owned channel one level toward its optimum and
	// broadcast the change to the affected wedge.
	type change struct {
		ch       *channelState
		newLevel int
		epoch    uint64
		floodAt  int
		q        int
		size     int
		interval float64
	}
	var changes []change
	n.mu.Lock()
	for i, ch := range owned {
		desired := sol.Levels[i]
		cur := ch.level
		if cur < 0 {
			cur = env.MaxLevel
		}
		if desired == cur || ch.orphan {
			continue
		}
		next := cur
		if desired < cur {
			next = cur - 1
		} else {
			next = cur + 1
		}
		ch.level = next
		ch.epoch++
		n.stats.LevelChanges++
		// Lowering the level expands the wedge: flood at the new, wider
		// level. Raising shrinks it: flood at the old, wider level so
		// the members being released hear the stop (§3.3).
		floodAt := next
		if next > cur {
			floodAt = cur
		}
		n.emitMetaLocked(ch, false)
		changes = append(changes, change{
			ch: ch, newLevel: next, epoch: ch.epoch, floodAt: floodAt,
			q: ch.subs.count, size: ch.sizeBytes,
			interval: ch.est.interval().Seconds(),
		})
	}
	n.mu.Unlock()

	for _, c := range changes {
		ctl := &pollCtlMsg{
			URL:         c.ch.url,
			Level:       c.newLevel,
			Epoch:       c.epoch,
			Q:           c.q,
			SizeBytes:   c.size,
			IntervalSec: c.interval,
		}
		n.sendToWedge(c.ch.id, c.ch.url, c.floodAt, msgPollCtl, ctl, nil)
	}
}

// handlePollCtl applies a poll-control broadcast: the receiver polls the
// channel iff it belongs to the announced wedge.
func (n *Node) handlePollCtl(msg pastry.Message) {
	p, ok := msg.Payload.(*pollCtlMsg)
	if !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ch := n.getChannel(p.URL)
	if p.Epoch < ch.epoch {
		return // stale control message
	}
	ch.epoch = p.Epoch
	ch.level = p.Level
	if p.Q > 0 && !ch.isOwner && !ch.isReplica {
		ch.subs.count = p.Q
	}
	if p.SizeBytes > 0 && ch.sizeBytes == 0 {
		ch.sizeBytes = p.SizeBytes
	}
	if p.IntervalSec > 0 && ch.est.ewma == 0 && !ch.isOwner {
		ch.est.ewma = p.IntervalSec
	}
	inWedge := ids.InWedge(n.Self().ID, ch.id, p.Level)
	switch {
	case inWedge, ch.polling && ch.isOwner:
		// Start polling, or re-slot the running loop at the new level.
		// Owners keep polling their channels even outside the wedge —
		// they are the level-K fallback.
		n.startPollingLocked(ch)
	case ch.polling:
		n.stopPollingLocked(ch)
	}
	// Level bookkeeping for channels this node answers for survives a
	// restart; plain wedge membership is rebuilt by the owner's next
	// poll-control broadcast and stays memory-only.
	if ch.isOwner || ch.isReplica {
		n.emitMetaLocked(ch, false)
	}
}

// aggregationPhase exchanges cluster summaries with routing-table
// contacts. To each row-i contact the node sends its subtree aggregate
// S_{i+1}: the summary of channels owned by nodes sharing at least i+1
// prefix digits with this node (itself plus deeper contacts' aggregates).
// Received aggregates refresh clusterIn and feed the next optimization
// (§3.2: overhead is tradeoffBins clusters per level per contact).
func (n *Node) aggregationPhase() {
	env := n.env()

	n.mu.Lock()
	subtree := n.subtreeAggregatesLocked(env)
	n.mu.Unlock()

	// Send S_{i+1} to every row-i contact. Sends are fire-and-forget:
	// aggregation is periodic, so a lost message only delays one round,
	// and unreachable contacts are evicted via the transport fault path.
	for i := 0; i < pastry.MaxTableRows; i++ {
		contacts := n.overlay.RowContacts(i)
		if len(contacts) == 0 {
			continue
		}
		msg := &maintainMsg{Row: i, Clusters: subtree[i+1]}
		for _, c := range contacts {
			n.overlay.SendDirect(c, msgMaintain, msg)
		}
	}
}

// subtreeAggregatesLocked returns S_0..S_maxRows (maxRows is
// pastry.MaxTableRows): S_maxRows summarizes this node's owned channels,
// and S_i = own + Σ_{r ≥ i} contacts' S_{r+1}, each folded in a fixed
// order so the float sums do not vary.
func (n *Node) subtreeAggregatesLocked(env TradeoffEnv) []*honeycomb.ClusterSet {
	const maxRows = pastry.MaxTableRows
	owned := n.ownedSortedLocked()
	meanSize := meanSizeOf(owned)
	own := honeycomb.NewClusterSet(tradeoffBins, env.MaxLevel)
	for _, ch := range owned {
		level := ch.level
		if level < 0 {
			level = env.MaxLevel
		}
		own.Add(honeycomb.ChannelFactors{
			Q:      float64(ch.subs.count),
			S:      float64(ch.sizeBytes) / meanSize,
			U:      ch.est.interval().Seconds(),
			Level:  level,
			Orphan: ch.orphan,
		})
	}
	subtree := make([]*honeycomb.ClusterSet, maxRows+1)
	subtree[maxRows] = own
	for i := maxRows - 1; i >= 0; i-- {
		s := subtree[i+1].Clone()
		mergeRow(s, n.clusterIn[i])
		subtree[i] = s
	}
	return subtree
}

// ownedSortedLocked returns the channels this node owns, sorted by ID so
// the solver's tie-breaking and every float sum over them, and with them
// the whole simulation, do not follow map order.
func (n *Node) ownedSortedLocked() []*channelState {
	var owned []*channelState
	for _, ch := range n.channels {
		if ch.isOwner {
			owned = append(owned, ch)
		}
	}
	sort.Slice(owned, func(a, b int) bool {
		return owned[a].id.Cmp(owned[b].id) < 0
	})
	return owned
}

// meanSizeOf returns the mean content size of the channels whose size
// is known, or 4096 bytes when none is.
func meanSizeOf(chs []*channelState) float64 {
	total, count := 0.0, 0
	for _, ch := range chs {
		if ch.sizeBytes > 0 {
			total += float64(ch.sizeBytes)
			count++
		}
	}
	if count == 0 {
		return 4096
	}
	return total / float64(count)
}

// mergeRow folds one clusterIn row's aggregates into dst in column
// order, so the floating-point sums do not follow map order.
func mergeRow(dst *honeycomb.ClusterSet, row map[int]*honeycomb.ClusterSet) {
	for _, col := range slices.Sorted(maps.Keys(row)) {
		dst.MergeSet(row[col])
	}
}

// handleMaintain stores a contact's subtree aggregate.
func (n *Node) handleMaintain(msg pastry.Message) {
	p, ok := msg.Payload.(*maintainMsg)
	if !ok || p.Clusters == nil {
		return
	}
	// The aggregate proves the contact is alive; fold it back in (it may
	// have been evicted across a partition the sender never noticed).
	n.overlay.Learn(msg.From)
	row := p.Row
	n.mu.Lock()
	defer n.mu.Unlock()
	if row < 0 || row >= len(n.clusterIn) {
		return
	}
	if n.clusterIn[row] == nil {
		n.clusterIn[row] = make(map[int]*honeycomb.ClusterSet)
	}
	// Key by the sender's digit at the row, which identifies the subtree
	// it speaks for.
	col := ids.Digit(msg.From.ID, row)
	n.clusterIn[row][col] = p.Clusters
}

// registerHandlers wires Corona's message types into the overlay.
func (n *Node) registerHandlers() {
	n.overlay.Handle(msgSubscribe, n.handleSubscribe)
	n.overlay.Handle(msgReplicate, n.handleReplicate)
	n.overlay.Handle(msgReplDelta, n.handleReplDelta)
	n.overlay.Handle(msgReplBeat, n.handleReplBeat)
	n.overlay.Handle(msgPollCtl, n.handlePollCtl)
	n.overlay.Handle(msgUpdate, n.handleUpdate)
	n.overlay.Handle(msgMaintain, n.handleMaintain)
	n.overlay.Handle(msgWedgeFwd, n.handleWedgeFwd)
	n.overlay.Handle(msgNotifyBatch, n.handleNotifyBatch)
	n.overlay.Handle(msgLease, n.handleLease)
	n.overlay.Handle(msgLeaseExpire, n.handleLeaseExpire)
	n.overlay.Handle(msgDelegate, n.handleDelegate)
	n.overlay.Handle(msgDelegateNotify, n.handleDelegateNotify)
}

// durationSeconds converts float seconds into a time.Duration.
func durationSeconds(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
