package experiments

import (
	"testing"
	"time"

	"corona/internal/eventsim"
	"corona/internal/webserver"
	"corona/internal/workload"
)

// buildFixture hosts a small workload on an origin.
func buildFixture(t *testing.T, subsPerChannel []int, interval time.Duration) (*eventsim.Sim, *webserver.Origin, *workload.Workload) {
	t.Helper()
	sim := eventsim.New(3)
	origin := webserver.NewOrigin()
	w := &workload.Workload{}
	for i, q := range subsPerChannel {
		url := urlFor(i)
		w.Channels = append(w.Channels, workload.ChannelSpec{
			URL: url, Subscribers: q, UpdateInterval: interval, SizeBytes: 2048,
		})
		w.TotalSubscriptions += q
		origin.Host(webserver.ChannelConfig{
			URL:       url,
			SizeBytes: 2048,
			Process:   webserver.PeriodicProcess{Origin: eventsim.Epoch.Add(time.Minute), Interval: interval},
		})
	}
	return sim, origin, w
}

// legacyRecorder records every legacy detection from the fixture's
// start, with no warm-up.
func legacyRecorder(sim *eventsim.Sim, origin *webserver.Origin, w *workload.Workload) *Recorder {
	return NewRecorder(w, origin, sim.Now(), 0, time.Hour)
}

func urlFor(i int) string {
	return "http://legacy.example.net/" + string(rune('a'+i)) + ".xml"
}

func TestLoadMatchesSubscriptions(t *testing.T) {
	sim, origin, w := buildFixture(t, []int{10, 5, 1}, time.Hour)
	rec := legacyRecorder(sim, origin, w)
	b := newBaseline(sim, origin, w, rec, 30*time.Minute, 1)
	if got := b.ExpectedLoadPerInterval(); got != 16 {
		t.Fatalf("ExpectedLoadPerInterval = %d, want 16", got)
	}
	b.Start()
	sim.RunFor(3 * time.Hour)
	load := origin.TotalLoad()
	// 16 clients x 6 polling intervals = 96 polls (within one interval of
	// boundary effects).
	if load.Polls < 80 || load.Polls > 112 {
		t.Fatalf("polls = %d, want ≈96", load.Polls)
	}
	// Each poll transfers full content.
	if load.BytesServed != load.Polls*2048 {
		t.Fatalf("bytes = %d, want polls x size", load.BytesServed)
	}
}

func TestPerChannelLoadProportionalToPopularity(t *testing.T) {
	sim, origin, w := buildFixture(t, []int{40, 4}, time.Hour)
	b := newBaseline(sim, origin, w, legacyRecorder(sim, origin, w), 30*time.Minute, 2)
	b.Start()
	sim.RunFor(4 * time.Hour)
	l0, _ := origin.Load(urlFor(0))
	l1, _ := origin.Load(urlFor(1))
	ratio := float64(l0.Polls) / float64(l1.Polls)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("load ratio %.1f, want ≈10 (popularity ratio)", ratio)
	}
}

func TestDetectionLatencyAveragesHalfInterval(t *testing.T) {
	// With many clients and periodic updates, mean detection latency must
	// approach τ/2 (the paper's 15 min for τ=30 min).
	sim, origin, w := buildFixture(t, []int{200}, 47*time.Minute)
	rec := legacyRecorder(sim, origin, w)
	b := newBaseline(sim, origin, w, rec, 30*time.Minute, 3)
	b.Start()
	sim.RunFor(12 * time.Hour)
	got := rec.LegacyPerChannel[0]
	if got.Count < 1000 {
		t.Fatalf("too few detections: %d", got.Count)
	}
	mean := got.Mean()
	if mean < 13*time.Minute || mean > 17*time.Minute {
		t.Fatalf("mean legacy detection %v, want ≈15m", mean)
	}
}

func TestEveryClientDetectsEveryUpdate(t *testing.T) {
	sim, origin, w := buildFixture(t, []int{7}, time.Hour)
	rec := legacyRecorder(sim, origin, w)
	b := newBaseline(sim, origin, w, rec, 20*time.Minute, 4)
	b.Start()
	sim.RunFor(6*time.Hour + time.Minute)
	// Updates at +1m, +61m, ..., i.e. 6 updates within the horizon eligible
	// for detection by all 7 clients (the last may straddle the boundary).
	got := rec.LegacyPerChannel[0].Count
	if got < 5*7 || got > 7*7 {
		t.Fatalf("detections = %d, want ≈42 (6 updates x 7 clients)", got)
	}
}

func TestZeroSubscriberChannelsSkipped(t *testing.T) {
	sim, origin, w := buildFixture(t, []int{0, 3}, time.Hour)
	b := newBaseline(sim, origin, w, legacyRecorder(sim, origin, w), 30*time.Minute, 5)
	b.Start()
	sim.RunFor(2 * time.Hour)
	l0, _ := origin.Load(urlFor(0))
	if l0.Polls != 0 {
		t.Fatalf("unsubscribed channel was polled %d times", l0.Polls)
	}
}

func TestStopHaltsPolling(t *testing.T) {
	sim, origin, w := buildFixture(t, []int{5}, time.Hour)
	b := newBaseline(sim, origin, w, legacyRecorder(sim, origin, w), 10*time.Minute, 6)
	b.Start()
	sim.RunFor(time.Hour)
	b.Stop()
	before := origin.TotalLoad().Polls
	sim.RunFor(2 * time.Hour)
	if after := origin.TotalLoad().Polls; after != before {
		t.Fatalf("polls continued after Stop: %d -> %d", before, after)
	}
}
