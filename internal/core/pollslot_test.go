package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"corona/internal/clock"
	"corona/internal/core"
	"corona/internal/eventsim"
	"corona/internal/ids"
	"corona/internal/pastry"
	"corona/internal/simnet"
	"corona/internal/webserver"
)

// pollLog records every origin poll, per channel, with the polling node
// and the instant it was issued.
type pollLog struct {
	mu    sync.Mutex
	polls map[string][]pollAt
}

type pollAt struct {
	node int
	at   time.Time
}

// since returns the channel's polls issued at or after from.
func (l *pollLog) since(url string, from time.Time) []pollAt {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []pollAt
	for _, p := range l.polls[url] {
		if !p.at.Before(from) {
			out = append(out, p)
		}
	}
	return out
}

// loggingFetcher notes each poll in the log before passing it on.
type loggingFetcher struct {
	core.Fetcher
	node int
	clk  clock.Clock
	log  *pollLog
}

func (f loggingFetcher) Fetch(url string, have, content uint64) (webserver.FetchResult, error) {
	f.log.mu.Lock()
	f.log.polls[url] = append(f.log.polls[url], pollAt{f.node, f.clk.Now()})
	f.log.mu.Unlock()
	return f.Fetcher.Fetch(url, have, content)
}

// lateClock is the simulator's clock with every timer firing a fixed
// delay after the instant it was asked for.
type lateClock struct {
	*eventsim.Sim
	late time.Duration
}

func (c lateClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	return lateTimer{c.Sim.AfterFunc(d+c.late, f), c.late}
}

// lateTimer re-arms its timer as late as lateClock arms it.
type lateTimer struct {
	clock.Timer
	late time.Duration
}

func (t lateTimer) Reset(d time.Duration) bool { return t.Timer.Reset(d + t.late) }

// slotCloud is a simnet deployment with chosen node identifiers and a
// poll log, for observing when each node polls.
type slotCloud struct {
	sim    *eventsim.Sim
	origin *webserver.Origin
	nodes  []*core.Node
	log    *pollLog
}

const slotTau = 10 * time.Minute

func newSlotCloud(t *testing.T, nodeIDs []ids.ID, late time.Duration) *slotCloud {
	t.Helper()
	sc := &slotCloud{
		sim:    eventsim.New(11),
		origin: webserver.NewOrigin(),
		log:    &pollLog{polls: map[string][]pollAt{}},
	}
	net := simnet.New(sc.sim, simnet.FixedLatency(10*time.Millisecond))
	var clk clock.Clock = sc.sim
	if late > 0 {
		clk = lateClock{sc.sim, late}
	}
	overlays := make([]*pastry.Node, len(nodeIDs))
	for i, id := range nodeIDs {
		overlays[i] = net.Node(pastry.Addr{ID: id, Endpoint: fmt.Sprintf("sim://%d", i)})
	}
	pastry.BuildStaticOverlay(overlays)
	origin := &core.OriginFetcher{Origin: sc.origin, Clock: sc.sim}
	for i, overlay := range overlays {
		cfg := core.DefaultConfig()
		cfg.NodeCount = len(nodeIDs)
		cfg.PollInterval = slotTau
		cfg.MaintenanceInterval = 20 * time.Minute
		cfg.OwnerReplicas = 0
		cfg.Seed = int64(i)
		fetcher := loggingFetcher{Fetcher: origin, node: i, clk: sc.sim, log: sc.log}
		node := core.NewNode(cfg, overlay, clk, fetcher, newRecordingNotifier(), newRecordingSink())
		sc.nodes = append(sc.nodes, node)
		node.Start()
	}
	return sc
}

// subscribe hosts url and gives it enough subscribers that the Lite
// budget affords the wedge the test wants.
func (sc *slotCloud) subscribe(url string, subscribers int) {
	sc.origin.Host(webserver.ChannelConfig{
		URL:       url,
		SizeBytes: 4096,
		Process:   webserver.PeriodicProcess{Origin: t0.Add(time.Minute), Interval: time.Hour},
	})
	for i := 0; i < subscribers; i++ {
		sc.nodes[i%len(sc.nodes)].Subscribe(fmt.Sprintf("s%d", i), url)
	}
}

// wedgeIDs draws members node identifiers sharing the channel's first
// `level` digits, and others that share fewer.
func wedgeIDs(rng *rand.Rand, channel ids.ID, level, members, others int) []ids.ID {
	var out []ids.ID
	for i := 0; i < members; i++ {
		id := ids.Random(rng)
		for d := 0; d < level; d++ {
			id = ids.WithDigit(id, d, ids.Digit(channel, d))
		}
		out = append(out, id)
	}
	for i := 0; i < others; i++ {
		id := ids.Random(rng)
		if ids.InWedge(id, channel, 1) {
			id = ids.WithDigit(id, 0, (ids.Digit(channel, 0)+1+i%15)%ids.Radix)
		}
		out = append(out, id)
	}
	return out
}

// TestWedgePollersSpreadEvenly checks that a channel's m pollers split
// the poll interval into m equal gaps (§3.1's τ/(2m) detection), for the
// whole ring at level 0 and for a level-1 wedge inside a larger ring.
// Independent random phases would leave the gaps uneven.
func TestWedgePollersSpreadEvenly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		url     string
		level   int
		members int // nodes inside the level's wedge
		others  int // nodes outside it
	}{
		{"level0-3pollers", "http://feeds.example.net/spread0.xml", 0, 3, 0},
		// Every member's leaf set (4 per side) must reach past the wedge
		// on both sides for the member to rank itself exactly, so the
		// wedge holds at most 4 members.
		{"level1-4members", "http://feeds.example.net/spread1.xml", 1, 4, 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			channel := ids.HashString(tc.url)
			rng := rand.New(rand.NewSource(5))
			sc := newSlotCloud(t, wedgeIDs(rng, channel, tc.level, tc.members, tc.others), 0)
			sc.subscribe(tc.url, 10)
			sc.sim.RunFor(3 * time.Hour)

			// Every poller agrees on the level and on m, and holds a
			// distinct exact slot.
			m, polling := 0, 0
			slots := map[int]bool{}
			for i, n := range sc.nodes {
				rec, ok := n.Records(tc.url)
				if !ok || !rec.Polling {
					continue
				}
				polling++
				if rec.Level != tc.level {
					t.Fatalf("node %d polls at level %d, want %d", i, rec.Level, tc.level)
				}
				if rec.PollSlot < 0 || slots[rec.PollSlot] {
					t.Fatalf("node %d holds slot %d (taken: %v)", i, rec.PollSlot, slots)
				}
				slots[rec.PollSlot] = true
				if m == 0 {
					m = rec.Pollers
				} else if rec.Pollers != m {
					t.Fatalf("node %d counts %d pollers, another %d", i, rec.Pollers, m)
				}
			}
			if m < tc.members || polling != m {
				t.Fatalf("%d nodes poll and they count %d pollers; want one count ≥ %d matching", polling, m, tc.members)
			}

			from := sc.sim.Now()
			sc.sim.RunFor(slotTau)
			polls := sc.log.since(tc.url, from)
			if len(polls) != m {
				t.Fatalf("%d polls in one interval, want one per poller (%d)", len(polls), m)
			}
			offsets := make([]time.Duration, len(polls))
			for i, p := range polls {
				offsets[i] = p.at.Sub(from)
			}
			sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
			want := slotTau / time.Duration(m)
			for i := range offsets {
				gap := offsets[(i+1)%m] - offsets[i]
				if i == m-1 {
					gap += slotTau
				}
				if d := gap - want; d < -time.Millisecond || d > time.Millisecond {
					t.Fatalf("poll gaps %v, want all %v (offsets %v)", gap, want, offsets)
				}
			}
		})
	}
}

// TestPollCadenceHoldsSlot runs a node whose timers all fire late by a
// tenth of the interval. Each poll must still aim at the next slot
// instant, so 200 intervals hold 200 polls at one fixed offset; timing
// each poll from the previous one's late firing would drift the phase
// and lose a poll every ten intervals.
func TestPollCadenceHoldsSlot(t *testing.T) {
	const url = "http://feeds.example.net/cadence.xml"
	sc := newSlotCloud(t, []ids.ID{ids.HashString("cadence-node")}, slotTau/10)
	sc.subscribe(url, 1)
	sc.sim.RunFor(2 * slotTau)

	from := sc.sim.Now()
	sc.sim.RunFor(200 * slotTau)
	polls := sc.log.since(url, from)
	if len(polls) < 199 || len(polls) > 201 {
		t.Fatalf("%d polls over 200 intervals, want 200±1", len(polls))
	}
	first := polls[0].at.Sub(from) % slotTau
	for _, p := range polls {
		if d := p.at.Sub(from)%slotTau - first; d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("poll at offset %v left the slot at offset %v", p.at.Sub(from)%slotTau, first)
		}
	}
}
