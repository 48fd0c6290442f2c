package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"corona"
	cmetrics "corona/internal/metrics"
	"corona/internal/store"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
}

func TestSummarizeSortsAndCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	d := summarize(xs)
	if d.N != 100 {
		t.Fatalf("N = %d, want 100", d.N)
	}
	if !near(d.P50, 50.5) || !near(d.P90, 90.1) || !near(d.P99, 99.01) {
		t.Fatalf("got p50=%v p90=%v p99=%v, want 50.5 90.1 99.01", d.P50, d.P90, d.P99)
	}
}

func TestBucketQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	if got := bucketQuantile(bounds, []uint64{0, 10, 0, 0}, 0.5); !near(got, 1.5) {
		t.Errorf("mid-bucket median = %v, want 1.5", got)
	}
	if got := bucketQuantile(bounds, []uint64{10, 0, 0, 0}, 0.5); !near(got, 0.5) {
		t.Errorf("first-bucket median = %v, want 0.5 (interpolated from 0)", got)
	}
	if got := bucketQuantile(bounds, []uint64{0, 0, 0, 5}, 0.5); got != 4 {
		t.Errorf("overflow median = %v, want the last bound 4", got)
	}
	if got := bucketQuantile(bounds, []uint64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}

func TestSubCountsWindowsCumulativeHistograms(t *testing.T) {
	got := subCounts([]uint64{5, 7, 9}, []uint64{1, 7, 10})
	want := []uint64{4, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subCounts = %v, want %v", got, want)
		}
	}
}

func TestRatioEmptyBaseIsZero(t *testing.T) {
	if ratio(5, 0) != 0 || ratio(6, 3) != 2 {
		t.Fatal("ratio must read 0 on an empty base and divide otherwise")
	}
}

func TestJitterProcessIsSeededAndBounded(t *testing.T) {
	start := time.Unix(1000, 0)
	mean := 200 * time.Millisecond
	a := newJitterProcess(start, mean, 0.5, time.Minute, rand.New(rand.NewSource(7)))
	b := newJitterProcess(start, mean, 0.5, time.Minute, rand.New(rand.NewSource(7)))
	if len(a.times) != len(b.times) || len(a.times) < 200 {
		t.Fatalf("same seed gave %d and %d versions", len(a.times), len(b.times))
	}
	for i := range a.times {
		if !a.times[i].Equal(b.times[i]) {
			t.Fatalf("version %d differs across identically seeded processes", i+1)
		}
		if i >= 2 {
			gap := a.times[i].Sub(a.times[i-1])
			if gap < mean/2 || gap > mean*3/2 {
				t.Fatalf("gap %v outside mean·[0.5, 1.5]", gap)
			}
		}
	}
	if a.VersionAt(start.Add(-time.Nanosecond)) != 0 || a.VersionAt(start) != 1 {
		t.Fatal("version 1 must appear exactly at the start")
	}
	for v := uint64(1); v <= 50; v++ {
		if got := a.VersionAt(a.UpdateTime(v)); got != v {
			t.Fatalf("VersionAt(UpdateTime(%d)) = %d", v, got)
		}
	}
	from, to := a.UpdateTime(10), a.UpdateTime(20)
	if got := a.published(from, to); got != 10 {
		t.Fatalf("published in [v10, v20) = %d, want 10", got)
	}
}

func TestStageBucketsReadTheRegistryText(t *testing.T) {
	reg := cmetrics.NewRegistry()
	h := reg.HistogramVec("corona_notify_stage_latency_seconds", "test", cmetrics.DurationBuckets, "stage")
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.003, 120} {
		h.With("owner_send").Observe(v)
	}
	h.With("entry_recv").Observe(0.04)
	reg.Counter("corona_wire_bytes_sent_total", "test").Add(4096)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseText(b.String())
	got := stageBuckets(samples, "owner_send")
	want := make([]uint64, len(cmetrics.DurationBuckets)+1)
	want[0], want[1], want[2], want[len(want)-1] = 1, 2, 1, 1 // ≤1ms, ≤2.5ms, ≤5ms, overflow
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("owner_send buckets = %v, want %v", got, want)
		}
	}
	if samples["corona_wire_bytes_sent_total"] != 4096 {
		t.Fatalf("wire bytes = %v, want 4096", samples["corona_wire_bytes_sent_total"])
	}
	// Windowed median of the pooled stage, in milliseconds: the third of
	// five observations sits in the (1ms, 2.5ms] bucket.
	before := snapshot{nodes: []nodeSnap{{stages: map[string][]uint64{"owner_send": make([]uint64, len(want))}}}}
	after := snapshot{nodes: []nodeSnap{{stages: map[string][]uint64{"owner_send": got}}}}
	if p50 := stageMs(before, after, "owner_send", 0.5); p50 <= 1 || p50 > 2.5 {
		t.Fatalf("owner_send p50 = %v ms, want inside (1, 2.5]", p50)
	}
}

func TestOverheadComparesCPUPerReceipt(t *testing.T) {
	ss := []slice{
		{on: false, cpu: 100 * time.Millisecond, receipts: 1000},
		{on: true, cpu: 110 * time.Millisecond, receipts: 1000},
		{on: false, cpu: 200 * time.Millisecond, receipts: 2000},
		{on: true, cpu: 121 * time.Millisecond, receipts: 1000},
	}
	// untraced 100µs per receipt, traced 115.5µs: 15.5% overhead.
	if got := overhead(ss); !near(got, 0.155) {
		t.Fatalf("overhead = %v, want 0.155", got)
	}
}

func TestSlicedQuantileReportsTheMedianSlice(t *testing.T) {
	t0 := time.Unix(0, 0)
	t1 := t0.Add(5 * time.Second)
	var samples []latency
	// One sample set per one-second slice, shifted by the slice index;
	// slice 3 carries a burst of interference.
	for k := 0; k < parts; k++ {
		for i := 1; i <= 9; i++ {
			v := float64(i + k)
			if k == 3 {
				v += 100
			}
			samples = append(samples, latency{first: t0.Add(time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond), notify: v})
		}
	}
	samples = append(samples, latency{first: t1, notify: 1e6}) // outside the window
	got, per := slicedQuantile(samples, func(l latency) float64 { return l.notify }, t0, t1, 0.5)
	want := []float64{5, 6, 7, 108, 9}
	for i := range want {
		if !near(per[i], want[i]) {
			t.Fatalf("per-slice medians = %v, want %v", per, want)
		}
	}
	if !near(got, 7) {
		t.Fatalf("median across slices = %v, want 7", got)
	}
	if sliceOf(t0, t0, t1) != 0 || sliceOf(t1.Add(-1), t0, t1) != parts-1 || sliceOf(t1, t0, t1) != -1 {
		t.Fatal("sliceOf must cover [t0, t1) and nothing else")
	}
}

func TestPerUpdateQuantileIgnoresAFewSlowUpdates(t *testing.T) {
	var samples []latency
	for v := uint64(1); v <= 5; v++ {
		for i := 1; i <= 10; i++ {
			lat := float64(i)
			if v == 5 {
				lat *= 100 // one update slowed by interference
			}
			samples = append(samples, latency{path: "/feed/0", ver: v, notify: lat})
		}
	}
	// Each ordinary update's p90 is 9.1; pooled over all deliveries the
	// slow update would set the p90 alone.
	if got := perUpdateQuantile(samples, 0.9); !near(got, 9.1) {
		t.Fatalf("per-update p90 = %v, want 9.1", got)
	}
}

func TestPerLayerRatiosUseWindowedDeltas(t *testing.T) {
	n := len(store.CommitLatencyBounds) + 1
	node := func(polls uint64, commits []uint64, busy time.Duration) nodeSnap {
		ls := corona.LiveStats{}
		ls.PollsIssued = polls
		ls.Store.CommitLatency = commits
		ls.Store.CommitLatencySum = busy
		return nodeSnap{ls: ls}
	}
	zero := make([]uint64, n)
	ten := make([]uint64, n)
	ten[1] = 10 // (100µs, 250µs]
	before := snapshot{nodes: []nodeSnap{node(5, zero, time.Millisecond), node(0, zero, 0)}}
	after := snapshot{nodes: []nodeSnap{node(15, ten, 3*time.Millisecond), node(10, zero, time.Millisecond)}}
	if got := delta(before, after, func(s corona.LiveStats) uint64 { return s.PollsIssued }); got != 20 {
		t.Fatalf("polls delta = %v, want 20 summed over nodes", got)
	}
	p50, commits, busy := commitMs(before, after)
	if commits != 10 || busy != 3*time.Millisecond || !near(p50, 0.175) {
		t.Fatalf("commits=%d busy=%v p50=%vms, want 10, 3ms, 0.175ms", commits, busy, p50)
	}
}
