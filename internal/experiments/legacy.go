package experiments

import (
	"math/rand"
	"sort"
	"time"

	"corona/internal/eventsim"
	"corona/internal/webserver"
	"corona/internal/workload"
)

// Baseline is the comparison baseline in every experiment: legacy RSS
// readers that poll independently and without coordination (paper §5:
// "we compare the performance of Corona with the performance of legacy
// RSS, a widely-used micronews syndication system").
//
// Each subscription is an independent client polling its channel every τ
// with a uniformly random phase. A client detects an update at its first
// poll after the update is published, so per-client detection latency
// averages τ/2 regardless of channel popularity, while the origin absorbs
// qᵢ polls per τ per channel — the uncoordinated-polling pathology Corona
// removes.
//
// The baseline keeps one pending simulator event per channel rather than
// per client: client phases are pre-sorted and a cursor walks them, so
// memory stays proportional to channels while every poll is still
// simulated and accounted.
type Baseline struct {
	sim      *eventsim.Sim
	origin   *webserver.Origin
	interval time.Duration
	recorder *Recorder

	channels []*channelPollState
}

// channelPollState walks one channel's client phases in order.
type channelPollState struct {
	index   int
	url     string
	phases  []time.Duration // sorted, one per client, in [0, τ)
	cursor  int
	cycle   time.Time // start of the current polling period
	process webserver.UpdateProcess
}

// newBaseline builds the baseline for a workload served by origin: every
// client polls every interval, with phases drawn from seed, and reports
// each detection to recorder (Recorder.LegacyDetection). Channels with
// zero subscribers are skipped (nobody polls them).
func newBaseline(sim *eventsim.Sim, origin *webserver.Origin, work *workload.Workload, recorder *Recorder, interval time.Duration, seed int64) *Baseline {
	b := &Baseline{sim: sim, origin: origin, interval: interval, recorder: recorder}
	rng := rand.New(rand.NewSource(seed))
	for i, ch := range work.Channels {
		if ch.Subscribers == 0 {
			continue
		}
		proc, ok := origin.Process(ch.URL)
		if !ok {
			continue
		}
		st := &channelPollState{
			index:   i,
			url:     ch.URL,
			phases:  make([]time.Duration, ch.Subscribers),
			process: proc,
		}
		for j := range st.phases {
			st.phases[j] = time.Duration(rng.Int63n(int64(interval)))
		}
		sort.Slice(st.phases, func(a, c int) bool { return st.phases[a] < st.phases[c] })
		b.channels = append(b.channels, st)
	}
	return b
}

// Start schedules the first poll of every channel's earliest-phase client.
func (b *Baseline) Start() {
	now := b.sim.Now()
	for _, st := range b.channels {
		st.cycle = now
		st.cursor = 0
		b.scheduleNext(st)
	}
}

func (b *Baseline) scheduleNext(st *channelPollState) {
	if st.cursor >= len(st.phases) {
		st.cursor = 0
		st.cycle = st.cycle.Add(b.interval)
	}
	at := st.cycle.Add(st.phases[st.cursor])
	b.sim.At(at, func() { b.poll(st) })
}

// poll performs one client's poll: full-content fetch (legacy readers of
// the era polled unconditionally) plus detection accounting for the
// updates published since this client's previous poll.
func (b *Baseline) poll(st *channelPollState) {
	now := b.sim.Now()
	if _, err := b.origin.Fetch(st.url, now); err == nil {
		// This client last polled exactly τ ago (or never, at startup).
		prev := now.Add(-b.interval)
		vPrev := st.process.VersionAt(prev)
		vNow := st.process.VersionAt(now)
		for v := vPrev + 1; v <= vNow; v++ {
			latency := now.Sub(st.process.UpdateTime(v))
			if latency >= 0 && latency <= b.interval {
				b.recorder.LegacyDetection(st.index, latency, now)
			}
		}
	}
	st.cursor++
	b.scheduleNext(st)
}
