package chaos

import (
	"fmt"
	"sort"
	"strings"

	"corona/internal/core"
	"corona/internal/experiments"
	"corona/internal/ids"
)

// Violation is one machine-checked invariant failure, with enough detail
// to debug from the JSON report alone.
type Violation struct {
	Invariant string `json:"invariant"`
	Channel   string `json:"channel,omitempty"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	if v.Channel == "" {
		return fmt.Sprintf("[%s] %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Channel, v.Detail)
}

// ownerView is one live node's ownership claim over a channel.
type ownerView struct {
	idx int
	rec core.ChannelRecords
}

// checkStructural sweeps all live nodes and asserts the structural
// PR-5/6 invariants:
//
//   - single-owner: exactly one live node owns each surviving channel
//     (split-brain resolves toward the highest OwnerEpoch, so after
//     convergence a second claimant is a fencing failure);
//   - black-hole: every expected durable subscription appears in its
//     owner's entry records, and the recorded entry node is live;
//   - delegate-roster: every delegate in an owner's roster is live,
//     carries a partition installed by this owner's (epoch, seq), and
//     the owner-slot/delegate partitions tile the subscriber set exactly
//     as the shared partition function dictates.
//
// Channels whose entire owner group fail-stopped (r.lost) are excluded:
// in-memory state has no durable copy to recover from, and CrashMany
// accounted them at crash time.
func (r *Run) checkStructural() []Violation {
	var out []Violation

	liveEndpoint := make(map[string]int) // endpoint name -> live node index
	for _, i := range r.H.LiveNodes() {
		liveEndpoint[r.H.Nodes[i].Self().Endpoint] = i
	}

	// Expected subscription set per channel (flash-crowd injectors append
	// to H.Subs, so bursts are audited like the seed workload).
	expected := make(map[string][]experiments.IssuedSub)
	for _, sub := range r.H.Subs {
		if !r.lost[sub.URL] {
			expected[sub.URL] = append(expected[sub.URL], sub)
		}
	}

	// One sweep over all live nodes collects every ownership claim, plus
	// the replica holders (an ownerless channel's diagnosis starts with
	// who still has state to re-elect from).
	owners := make(map[string][]ownerView)
	replicas := make(map[string][]ownerView)
	for _, i := range r.H.LiveNodes() {
		idx := i
		r.H.Nodes[i].EachChannel(func(cr core.ChannelRecords) {
			if cr.Owner {
				owners[cr.URL] = append(owners[cr.URL], ownerView{idx, cr})
			} else if cr.Replica {
				replicas[cr.URL] = append(replicas[cr.URL], ownerView{idx, cr})
			}
		})
	}

	urls := make([]string, 0, len(expected))
	for url := range expected {
		urls = append(urls, url)
	}
	sort.Strings(urls)

	for _, url := range urls {
		claims := owners[url]
		if len(claims) != 1 {
			detail := fmt.Sprintf("%d live owners", len(claims))
			if len(claims) > 1 {
				var who []string
				for _, c := range claims {
					who = append(who, fmt.Sprintf("node %d (epoch %d)", c.idx, c.rec.OwnerEpoch))
				}
				detail += ": " + strings.Join(who, ", ")
			} else {
				var who []string
				for _, c := range replicas[url] {
					who = append(who, fmt.Sprintf("node %d (epoch %d, %d subs, isRoot=%v, claims=%d)",
						c.idx, c.rec.OwnerEpoch, len(c.rec.Subscribers),
						r.H.Nodes[c.idx].Overlay().IsRoot(ids.HashString(url)),
						r.H.Nodes[c.idx].Stats().OwnerClaimsRouted))
				}
				if len(who) == 0 {
					detail += "; no live replicas hold state"
				} else {
					detail += "; replicas: " + strings.Join(who, ", ")
				}
			}
			out = append(out, Violation{Invariant: "single-owner", Channel: url, Detail: detail})
			continue
		}
		own := claims[0]
		out = append(out, r.checkBlackHole(url, own, expected[url], liveEndpoint)...)
		out = append(out, r.checkDelegates(url, own, liveEndpoint)...)
	}
	return out
}

func (r *Run) checkBlackHole(url string, own ownerView, subs []experiments.IssuedSub, liveEndpoint map[string]int) []Violation {
	var out []Violation
	for _, sub := range subs {
		entry, ok := own.rec.Subscribers[sub.Client]
		if !ok {
			out = append(out, Violation{
				Invariant: "black-hole",
				Channel:   url,
				Detail:    fmt.Sprintf("client %s missing from owner node %d's entry records", sub.Client, own.idx),
			})
			continue
		}
		if _, live := liveEndpoint[entry.Endpoint]; !live {
			out = append(out, Violation{
				Invariant: "black-hole",
				Channel:   url,
				Detail:    fmt.Sprintf("client %s's entry record points at dead node %s", sub.Client, entry.Endpoint),
			})
		}
	}
	return out
}

func (r *Run) checkDelegates(url string, own ownerView, liveEndpoint map[string]int) []Violation {
	rec := own.rec
	if len(rec.Delegates) == 0 {
		return nil
	}
	var out []Violation
	slots := len(rec.Delegates) + 1
	// Fetch each delegate's view of this channel.
	parts := make([]core.ChannelRecords, len(rec.Delegates))
	for d, addr := range rec.Delegates {
		di, live := liveEndpoint[addr.Endpoint]
		if !live {
			out = append(out, Violation{
				Invariant: "delegate-roster",
				Channel:   url,
				Detail:    fmt.Sprintf("owner node %d's roster names dead delegate %s", own.idx, addr.Endpoint),
			})
			continue
		}
		dr, ok := r.H.Nodes[di].Records(url)
		if !ok || dr.DelegatePartition == nil {
			out = append(out, Violation{
				Invariant: "delegate-roster",
				Channel:   url,
				Detail:    fmt.Sprintf("delegate node %d holds no partition for the channel", di),
			})
			continue
		}
		if dr.DelegateFrom.Endpoint != r.H.Nodes[own.idx].Self().Endpoint {
			out = append(out, Violation{
				Invariant: "delegate-roster",
				Channel:   url,
				Detail:    fmt.Sprintf("delegate node %d serves owner %s, not node %d", di, dr.DelegateFrom.Endpoint, own.idx),
			})
			continue
		}
		if dr.DelegateEpoch != rec.OwnerEpoch || dr.DelegateSeqSeen != rec.DelegateSeq {
			out = append(out, Violation{
				Invariant: "delegate-roster",
				Channel:   url,
				Detail: fmt.Sprintf("delegate node %d fenced at (epoch %d, seq %d), owner is at (epoch %d, seq %d)",
					di, dr.DelegateEpoch, dr.DelegateSeqSeen, rec.OwnerEpoch, rec.DelegateSeq),
			})
			continue
		}
		parts[d] = dr
	}
	if len(out) > 0 {
		return out
	}
	// The owner slot plus the delegate partitions must tile the subscriber
	// set exactly as the shared partition function dictates. Clients are
	// visited in sorted order so the violation list — part of the JSON
	// report — is identical across reruns of the same seed.
	clients := make([]string, 0, len(rec.Subscribers))
	for c := range rec.Subscribers {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	covered := 0
	for _, client := range clients {
		slot := core.DelegateSlot(client, slots)
		if slot == 0 {
			if _, ok := rec.OwnEntries[client]; !ok {
				out = append(out, Violation{
					Invariant: "delegate-roster",
					Channel:   url,
					Detail:    fmt.Sprintf("client %s maps to the owner slot but is missing from ownEntries", client),
				})
				continue
			}
		} else if _, ok := parts[slot-1].DelegatePartition[client]; !ok {
			out = append(out, Violation{
				Invariant: "delegate-roster",
				Channel:   url,
				Detail:    fmt.Sprintf("client %s maps to delegate slot %d but is missing from its partition", client, slot),
			})
			continue
		}
		covered++
	}
	// No phantom entries: the shards must not exceed the subscriber set.
	shardTotal := len(rec.OwnEntries)
	for _, p := range parts {
		shardTotal += len(p.DelegatePartition)
	}
	if covered == len(rec.Subscribers) && shardTotal != len(rec.Subscribers) {
		out = append(out, Violation{
			Invariant: "delegate-roster",
			Channel:   url,
			Detail: fmt.Sprintf("shards hold %d entries for %d subscribers (stale phantom entries)",
				shardTotal, len(rec.Subscribers)),
		})
	}
	return out
}

// checkVersions asserts per-channel version monotonicity: no live node's
// LastVersion for a channel ever decreases between sweeps, and none runs
// ahead of the origin. Called at mid-run checkpoints and every convergence
// round; state accumulates in r.verLog.
func (r *Run) checkVersions() []Violation {
	var out []Violation
	now := r.H.Sim.Now()
	for _, i := range r.H.LiveNodes() {
		idx := i
		log := r.verLog[idx]
		if log == nil {
			log = make(map[string]uint64)
			r.verLog[idx] = log
		}
		r.H.Nodes[i].EachChannel(func(cr core.ChannelRecords) {
			if prev, ok := log[cr.URL]; ok && cr.LastVersion < prev {
				out = append(out, Violation{
					Invariant: "monotonic-version",
					Channel:   cr.URL,
					Detail:    fmt.Sprintf("node %d's version regressed %d -> %d", idx, prev, cr.LastVersion),
				})
			}
			log[cr.URL] = cr.LastVersion
			if proc, ok := r.H.Origin.Process(cr.URL); ok {
				if originVer := proc.VersionAt(now); cr.LastVersion > originVer {
					out = append(out, Violation{
						Invariant: "monotonic-version",
						Channel:   cr.URL,
						Detail:    fmt.Sprintf("node %d reports version %d ahead of origin %d", idx, cr.LastVersion, originVer),
					})
				}
			}
		})
	}
	return out
}

// checkDeliveries asserts exactly-once delivery over the post-convergence
// probe window: no (client, channel, version) triple delivered twice. The
// fault phase is excluded by design — during a partition both sides
// re-point entries and notify the same origin version, which is the
// documented at-least-once contract under faults; run-wide duplicates are
// still reported as a metric (Result.Duplicates).
func (r *Run) checkDeliveries() []Violation {
	if d := r.Log.WindowDuplicates(); d > 0 {
		return []Violation{{
			Invariant: "exactly-once",
			Detail:    fmt.Sprintf("%d duplicate deliveries after convergence (first: %s)", d, r.Log.WindowFirstDuplicate()),
		}}
	}
	return nil
}
