package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestGenerateTotalsExact(t *testing.T) {
	w := Generate(Config{Channels: 1000, Subscriptions: 50000, ZipfExponent: 0.5, Seed: 1})
	total := 0
	for _, c := range w.Channels {
		total += c.Subscribers
	}
	if total != 50000 {
		t.Fatalf("apportioned %d subscriptions, want exactly 50000", total)
	}
	if w.TotalSubscriptions != 50000 {
		t.Fatalf("TotalSubscriptions = %d", w.TotalSubscriptions)
	}
}

func TestGenerateZipfShape(t *testing.T) {
	w := Generate(Config{Channels: 10000, Subscriptions: 500000, ZipfExponent: 0.5, Seed: 2})
	// Popularity must be non-increasing in rank.
	for i := 1; i < len(w.Channels); i++ {
		if w.Channels[i].Subscribers > w.Channels[i-1].Subscribers {
			t.Fatalf("popularity not monotone at rank %d", i)
		}
	}
	// Zipf 0.5: q(rank) ∝ rank^-0.5, so q(1)/q(100) ≈ 10.
	q1 := float64(w.Channels[0].Subscribers)
	q100 := float64(w.Channels[99].Subscribers)
	if ratio := q1 / q100; ratio < 7 || ratio > 14 {
		t.Fatalf("q(1)/q(100) = %.1f, want ≈10 for Zipf 0.5", ratio)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Channels: 100, Subscriptions: 5000, Seed: 7})
	b := Generate(Config{Channels: 100, Subscriptions: 5000, Seed: 7})
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			t.Fatalf("channel %d differs between identical configs", i)
		}
	}
	c := Generate(Config{Channels: 100, Subscriptions: 5000, Seed: 8})
	same := 0
	for i := range a.Channels {
		if a.Channels[i].UpdateInterval == c.Channels[i].UpdateInterval {
			same++
		}
	}
	if same == len(a.Channels) {
		t.Fatal("different seeds produced identical update intervals")
	}
}

func TestUpdateIntervalSurveyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	subHour, unchanged := 0, 0
	for i := 0; i < n; i++ {
		u := SampleUpdateInterval(rng)
		if u < time.Hour {
			subHour++
		}
		if u >= 7*24*time.Hour {
			unchanged++
		}
		if u < 10*time.Minute || u > 7*24*time.Hour {
			t.Fatalf("interval %v outside [10m, 1w]", u)
		}
	}
	if frac := float64(subHour) / n; math.Abs(frac-0.10) > 0.01 {
		t.Fatalf("sub-hour fraction = %.3f, want ≈0.10", frac)
	}
	if frac := float64(unchanged) / n; math.Abs(frac-0.50) > 0.01 {
		t.Fatalf("week-capped fraction = %.3f, want ≈0.50", frac)
	}
}

func TestContentSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var total float64
	const n = 20000
	for i := 0; i < n; i++ {
		s := SampleContentSize(rng)
		if s < 512 || s > 64*1024 {
			t.Fatalf("size %d outside clamp", s)
		}
		total += float64(s)
	}
	mean := total / n
	if mean < 3000 || mean > 9000 {
		t.Fatalf("mean size %.0f outside feed-like range", mean)
	}
}

func TestMeanSize(t *testing.T) {
	w := &Workload{Channels: []ChannelSpec{{SizeBytes: 1000}, {SizeBytes: 3000}}}
	if got := w.MeanSize(); got != 2000 {
		t.Fatalf("MeanSize = %v", got)
	}
	empty := &Workload{}
	if got := empty.MeanSize(); got != 0 {
		t.Fatalf("MeanSize of empty = %v", got)
	}
}

func TestGeneratePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with zero channels did not panic")
		}
	}()
	Generate(Config{Channels: 0})
}

func TestURLsDistinct(t *testing.T) {
	w := Generate(Config{Channels: 500, Subscriptions: 1000, Seed: 6})
	seen := map[string]bool{}
	for _, c := range w.Channels {
		if seen[c.URL] {
			t.Fatalf("duplicate URL %q", c.URL)
		}
		seen[c.URL] = true
	}
}
